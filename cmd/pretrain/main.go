// Command pretrain runs MAE self-supervised pretraining of an analog
// ViT on the procedural MillionAID corpus and writes a checkpoint.
// Every run executes real data-parallel training over in-process ring
// collectives (internal/dist) — -ranks 1, the default, is the one-rank
// world — and reports the measured communication next to the α–β
// model's prediction for the same calls.
//
// Usage:
//
//	pretrain -model ViT-1B -image 32 -patch 8 -epochs 20 -out vit1b.ckpt
//	pretrain -model ViT-Base -ranks 4 -strategy zero1 -epochs 4
//	pretrain -model ViT-Base -ranks 8 -strategy hybrid:4 -epochs 4
//	pretrain -model ViT-Base -ranks 4 -strategy zero1 -precision bf16
//	pretrain -model ViT-Base -ranks 4 -overlap -accum 4
//
// -batch is the global batch size; with -ranks N each rank trains
// batch/N samples per step. -precision selects fp32 or the executed
// bf16 mixed-precision mode (bf16 wire payloads at half the bytes,
// fp32 master weights, dynamic loss scaling). -overlap launches each
// gradient bucket's collective the moment backward finalizes it
// (bitwise identical to the synchronous schedule; the report's
// exposed-comm line shows what the overlap hid), and -accum N
// accumulates N micro-batches per optimizer step with collectives
// firing once per window. -strategy selects the synchronization
// schedule at any world size — the paper's full Section III-C matrix:
//
//	ddp       bucketed gradient all-reduce, replicated optimizer
//	zero1     reduce-scattered gradients, rank-sharded AdamW state,
//	          all-gathered parameters (FSDP's SHARD_GRAD_OP)
//	full      zero1 plus parameter resharding after forward with a
//	          backward re-gather (FSDP's FULL_SHARD)
//	hybrid:k  FULL_SHARD inside k-rank shard groups, gradient-shard
//	          all-reduce across the world/k replica groups
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/geofm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "pretrain:", err)
		os.Exit(1)
	}
}

// run parses the command line in args, trains, and writes the report
// to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pretrain", flag.ContinueOnError)
	model := fs.String("model", "ViT-Base", "Table I model whose analog to train (ViT-Base, ViT-Huge, ViT-1B, ViT-3B)")
	imageSize := fs.Int("image", 32, "image size of the procedural scenes")
	patchSize := fs.Int("patch", 8, "ViT patch size")
	channels := fs.Int("channels", 3, "image channels")
	scale := fs.Int("scale", 10, "Table II sample-count divisor for the corpus")
	epochs := fs.Int("epochs", 20, "pretraining epochs")
	steps := fs.Int("steps", 40, "max steps per epoch (0 = full corpus)")
	batch := fs.Int("batch", 16, "global batch size (split across ranks)")
	lr := fs.Float64("lr", 0.02, "base learning rate (linear batch scaling applies)")
	workers := fs.Int("workers", 4, "data loader workers per rank")
	seed := fs.Uint64("seed", 1, "master seed")
	ranks := fs.Int("ranks", 1, "data-parallel world size (in-process ranks)")
	strategy := fs.String("strategy", "ddp", "gradient/optimizer sync strategy: "+acceptedStrategies)
	precision := fs.String("precision", "fp32", "numeric mode: "+acceptedPrecisions)
	overlap := fs.Bool("overlap", false, "launch gradient buckets during backward (communication-computation overlap; bitwise identical to the synchronous path)")
	accum := fs.Int("accum", 1, "gradient-accumulation micro-steps per optimizer step (effective batch = -batch × -accum)")
	profile := fs.String("profile", "", "hardware profile (hwprofile.json from cmd/calibrate); prices executed collectives with this host's measured α–β link instead of the default")
	out := fs.String("out", "", "checkpoint output path (optional)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Resolve -strategy and -precision before any work so a typo fails
	// fast.
	plan, err := parsePlan(*strategy)
	if err != nil {
		return err
	}
	prec, err := parsePrecision(*precision)
	if err != nil {
		return err
	}
	enc, err := geofm.Analog(*model, *imageSize, *patchSize, *channels)
	if err != nil {
		return err
	}
	suite := geofm.NewSuite(*scale, *imageSize, *channels, *seed)

	cfg := geofm.DefaultPretrain(geofm.DefaultMAE(enc))
	cfg.Epochs = *epochs
	cfg.MaxStepsPerEpoch = *steps
	cfg.BatchSize = *batch
	cfg.BaseLR = *lr
	cfg.Workers = *workers
	cfg.Seed = *seed
	cfg.Log = stdout

	fmt.Fprintf(stdout, "pretraining %s (%d parameters) on %s (%d images)\n",
		enc.Name, enc.EncoderParams(), suite.Pretrain.Name, suite.Pretrain.TrainCount)

	var link geofm.CommParams
	if *profile != "" {
		link, err = calibratedLink(*profile, prec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "calibrated link: %.1f MiB/s, launch %.1fµs (%s)\n",
			link.Bandwidth/(1<<20), link.Launch*1e6, *profile)
	}

	dcfg := geofm.DistPretrainConfig{PretrainConfig: cfg, Ranks: *ranks, Plan: plan,
		Precision: prec, Overlap: *overlap, AccumSteps: *accum, Link: link}
	fmt.Fprintf(stdout, "executing %d ranks, %s, %s, local batch %d, accum %d, overlap %v\n",
		*ranks, plan.Name(), prec, *batch/max(*ranks, 1), max(*accum, 1), *overlap)
	res, err := geofm.PretrainDistributed(dcfg, suite.Pretrain)
	if err != nil {
		return err
	}
	writeComm(stdout, res)
	fmt.Fprintln(stdout, res.Breakdown(plan.Name()))
	fmt.Fprintf(stdout, "done: %d steps, final loss %.4f, %.1f images/s\n",
		res.Steps, res.LossCurve.Last(), res.ImagesPerSec)

	if *out != "" {
		if err := geofm.SaveCheckpoint(*out, res.Model.Params(), res.Steps); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "checkpoint written to %s\n", *out)
	}
	return nil
}

// acceptedStrategies is the full -strategy vocabulary; parse errors
// quote it so a typo never silently falls back to a default.
const acceptedStrategies = "ddp | zero1 | full | hybrid:k"

// acceptedPrecisions is the full -precision vocabulary.
const acceptedPrecisions = "fp32 | bf16"

// parsePrecision maps a -precision spelling onto its executed mode.
func parsePrecision(s string) (geofm.Precision, error) {
	switch s {
	case "fp32":
		return geofm.FP32, nil
	case "bf16":
		return geofm.BF16, nil
	default:
		return geofm.FP32, fmt.Errorf("unknown -precision %q (want %s)", s, acceptedPrecisions)
	}
}

// parsePlan maps a -strategy spelling onto its fsdp plan.
func parsePlan(s string) (geofm.Plan, error) {
	switch {
	case s == "ddp":
		return geofm.DefaultDDP(), nil
	case s == "zero1":
		return geofm.BestPractice(geofm.ShardGradOp, 0), nil
	case s == "full":
		return geofm.BestPractice(geofm.FullShard, 0), nil
	case strings.HasPrefix(s, "hybrid:"):
		k, err := strconv.Atoi(strings.TrimPrefix(s, "hybrid:"))
		if err != nil || k < 1 {
			return geofm.Plan{}, fmt.Errorf("bad hybrid group in -strategy %q (want %s)", s, acceptedStrategies)
		}
		return geofm.BestPractice(geofm.HybridShard, k), nil
	default:
		return geofm.Plan{}, fmt.Errorf("unknown -strategy %q (want %s)", s, acceptedStrategies)
	}
}

// calibratedLink loads a hardware profile and selects the pooled α–β
// link for the run's wire dtype, so the report's "model" columns price
// collectives with this host's measurement instead of the default.
func calibratedLink(path string, prec geofm.Precision) (geofm.CommParams, error) {
	p, err := geofm.LoadHardwareProfile(path)
	if err != nil {
		return geofm.CommParams{}, err
	}
	dtype := "fp32"
	if prec == geofm.BF16 {
		dtype = "bf16"
	}
	return p.LinkParams(dtype)
}

// writeComm reports each collective's executed traffic next to the α–β
// model's accounting, plus the fsdp simulator's per-step prediction —
// the measured-vs-modeled table a golden test pins so the report cannot
// silently drift.
func writeComm(w io.Writer, res *geofm.DistPretrainResult) {
	steps := float64(res.Steps)
	fmt.Fprintf(w, "collective traffic (%d ranks, %d steps):\n", res.Ranks, res.Steps)
	fmt.Fprintf(w, "  %-15s %8s %14s %14s %12s\n", "op", "calls", "sent MiB/rank", "model MiB", "model time")
	rows := []struct {
		name string
		s    geofm.CommOpStats
	}{
		{"broadcast", res.Comm.Broadcast},
		{"all-reduce", res.Comm.AllReduce},
		{"reduce-scatter", res.Comm.ReduceScatter},
		{"all-gather", res.Comm.AllGather},
	}
	for _, r := range rows {
		if r.s.Calls == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-15s %8d %14.2f %14.2f %10.1fms\n", r.name, r.s.Calls,
			r.s.MeasuredWireBytes/(1<<20), r.s.ModelWireBytes/(1<<20), r.s.ModelTime*1e3)
	}
	if steps > 0 {
		fmt.Fprintf(w, "  per-step bytes vs fsdp simulator: AR %.0f/%.0f  RS %.0f/%.0f  AG %.0f/%.0f\n",
			res.Comm.AllReduce.MeasuredWireBytes/steps, res.Traffic.AllReduceBytes,
			res.Comm.ReduceScatter.MeasuredWireBytes/steps, res.Traffic.ReduceScatterBytes,
			res.Comm.AllGather.MeasuredWireBytes/steps, res.Traffic.AllGatherBytes)
	}
}
