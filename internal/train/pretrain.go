// Package train implements the self-supervised pretraining engine: one
// epoch/step loop (PretrainDistributed) over the MAE model with AdamW,
// linear-warmup cosine learning-rate schedule, gradient clipping, loss
// telemetry and checkpointing — the Section V pretraining recipe of the
// paper at laptop scale. The loop runs SPMD over in-process ranks under
// any Section III-C sharding strategy; single-rank Pretrain is its
// one-rank case, so every model size trains with the same recipe and
// only the sharding changes.
package train

import (
	"io"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/metrics"
)

// PretrainConfig carries the pretraining hyper-parameters. The defaults
// (via DefaultPretrain) follow Section V: AdamW with base LR 1.5e-4
// under the linear batch-scaling rule, weight decay 0.05, cosine decay,
// 75% masking (part of the MAE config).
type PretrainConfig struct {
	MAE          mae.Config
	BatchSize    int
	Epochs       int
	BaseLR       float64
	WeightDecay  float64
	WarmupEpochs int
	ClipNorm     float64
	Workers      int
	Seed         uint64
	// Log receives progress lines; nil silences output.
	Log io.Writer
	// MaxStepsPerEpoch truncates epochs (0 = full epochs); used by fast
	// tests and the quickstart example.
	MaxStepsPerEpoch int
}

// DefaultPretrain returns the paper's recipe for a given MAE config.
func DefaultPretrain(m mae.Config) PretrainConfig {
	return PretrainConfig{
		MAE:          m,
		BatchSize:    32,
		Epochs:       100,
		BaseLR:       1.5e-4,
		WeightDecay:  0.05,
		WarmupEpochs: 5,
		ClipNorm:     5.0,
		Workers:      4,
		Seed:         1,
	}
}

// PretrainResult bundles the trained model and its telemetry.
type PretrainResult struct {
	Model *mae.Model
	// LossCurve holds (step, loss) points — the Figure 5 series.
	LossCurve metrics.Series
	// EpochLoss holds (epoch, mean loss) points.
	EpochLoss    metrics.Series
	ImagesPerSec float64
	Steps        int
}

// Pretrain runs MAE pretraining over the dataset's training split on
// one rank and returns the model plus loss curves. It is
// PretrainDistributed over a one-rank world with the default DDP plan:
// the collectives are no-ops, the optimizer is the loop's one
// opt.ShardedAdamW over the single span covering the whole flat space,
// with the global-norm clip over the flat gradient, and cfg.Log
// receives one line per epoch.
func Pretrain(cfg PretrainConfig, ds *geodata.Dataset) (*PretrainResult, error) {
	res, err := PretrainDistributed(DistConfig{PretrainConfig: cfg, Ranks: 1}, ds)
	if err != nil {
		return nil, err
	}
	return &res.PretrainResult, nil
}
