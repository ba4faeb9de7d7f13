package train

import (
	"fmt"

	"repro/internal/fsdp"
	"repro/internal/opt"
)

// partitionFor returns the flat shard layout a plan executes with at a
// given world size — the same construction PretrainDistributed's ranks
// use: the single ranks-aligned shard of the replicated modes
// (DDP, NO_SHARD, HYBRID_1GPU), or the shard-group partition with
// HYBRID's pad-to-world two-level alignment (align = group·replicas, so
// the replica-group ring over one shard also chunks uniformly).
func partitionFor(plan fsdp.Plan, ranks, dim int) (opt.Partition, error) {
	if ranks < 1 {
		return opt.Partition{}, fmt.Errorf("train: non-positive rank count %d", ranks)
	}
	if err := plan.Validate(ranks); err != nil {
		return opt.Partition{}, fmt.Errorf("train: %w", err)
	}
	mode, group, err := compilePlan(plan, ranks)
	if err != nil {
		return opt.Partition{}, err
	}
	if mode == execReplicated {
		return opt.NewPartition(dim, 1, ranks), nil
	}
	return opt.NewPartition(dim, group, group*(ranks/group)), nil
}

// Reshard remaps a training state captured at one topology (the state's
// World/Strategy stamps) onto another: the N→M step of an elastic
// restart. The state's tensors are cut into the per-rank pieces the old
// layout's owner ranks held (opt.CutShards under the old partition,
// padding clipped), rejoined into the canonical flat buffers
// (opt.JoinShards validates the pieces tile the state exactly), and the
// result is restamped with the new world size and plan so
// PretrainDistributed's resume validation accepts it. States from
// before topology stamps existed (World 0) skip the cut/join and are
// only restamped.
//
// The new plan is validated against the new world (divisibility for
// HYBRID groups, known strategy) before any data moves, so an
// impossible target fails fast. Reshard never mutates its input; the
// returned state is an independent deep copy.
func Reshard(st *TrainState, ranks int, plan fsdp.Plan) (*TrainState, error) {
	if st == nil {
		return nil, fmt.Errorf("train: resharding a nil state")
	}
	dim := len(st.Master)
	if len(st.OptM) != dim || len(st.OptV) != dim {
		return nil, fmt.Errorf("train: state moments (%d/%d values) do not match master (%d)",
			len(st.OptM), len(st.OptV), dim)
	}
	plan = withPlanDefaults(plan)
	if _, err := partitionFor(plan, ranks, dim); err != nil {
		return nil, err
	}
	out := st.clone()
	if st.World > 0 && st.Strategy != "" {
		oldPlan, err := fsdp.ParsePlanName(st.Strategy)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
		oldPart, err := partitionFor(oldPlan, st.World, dim)
		if err != nil {
			return nil, fmt.Errorf("train: resharding from world %d %s: %w", st.World, st.Strategy, err)
		}
		shards, err := opt.CutShards(oldPart, st.Master, st.OptM, st.OptV)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
		out.Master, out.OptM, out.OptV, err = opt.JoinShards(shards)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
	}
	out.World = ranks
	out.Strategy = plan.Name()
	return out, nil
}
