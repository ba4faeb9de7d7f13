package main

import (
	"time"

	"repro/geofm"
)

// distSection runs the workload's model through PretrainDistributed in
// the paper's configuration (2 ranks, FULL_SHARD, bf16, overlap) and
// reports the per-step collective accounting the result already
// carries. On pretrain-3b-fsdp this is the workload itself; on the
// other workloads it is the same model under the same strategy.
func distSection(r *run) error {
	w := r.w
	ranks := w.ranks
	if ranks < 2 {
		ranks = 2
	}
	in, err := newTrainInputs(w, r.seed, 16)
	if err != nil {
		return err
	}
	cfg := in.cfg
	cfg.Epochs, cfg.MaxStepsPerEpoch = 3, 4
	start := time.Now()
	res, err := geofm.PretrainDistributed(distConfig(cfg, ranks), in.ds)
	if err != nil {
		return err
	}
	end := time.Now()
	r.attempted += res.Steps
	checkWireBytes(r, res)
	steps := float64(res.Steps)
	c := res.Comm
	calls := float64(c.ReduceScatter.Calls + c.AllGather.Calls + c.AllReduce.Calls)
	wire := c.ReduceScatter.MeasuredWireBytes + c.AllGather.MeasuredWireBytes + c.AllReduce.MeasuredWireBytes
	r.tr.add("train.distributed", "dist", 0, 3, start, end, map[string]any{
		"ranks": ranks, "steps": res.Steps, "plan": "FULL_SHARD", "precision": "bf16",
		"exposed_comm_s": res.ExposedCommSec, "compute_s": res.ComputeSec})
	r.set("dist.rs_ms", "ms", c.ReduceScatter.WallTime/steps*1e3)
	r.set("dist.ag_ms", "ms", c.AllGather.WallTime/steps*1e3)
	r.set("dist.exposed_ms", "ms", res.ExposedCommSec/steps*1e3)
	r.set("dist.compute_ms", "ms", res.ComputeSec/steps*1e3)
	r.set("dist.wire_bytes", "bytes", wire/steps)
	r.set("dist.calls", "count", calls/steps)
	return nil
}
