package fsdp

import "testing"

// TestParsePlanNameRoundTrip: every label Plan.Name can emit parses
// back to a plan with the same layout (strategy + group size) and the
// same label.
func TestParsePlanNameRoundTrip(t *testing.T) {
	plans := []Plan{
		DefaultDDP(),
		BestPractice(NoShard, 0),
		BestPractice(FullShard, 0),
		BestPractice(ShardGradOp, 0),
	}
	for k := 1; k <= 8; k++ {
		plans = append(plans, BestPractice(HybridShard, k))
	}
	for _, p := range plans {
		got, err := ParsePlanName(p.Name())
		if err != nil {
			t.Fatalf("ParsePlanName(%q): %v", p.Name(), err)
		}
		if got.Strategy != p.Strategy || got.GroupSize != p.GroupSize {
			t.Fatalf("ParsePlanName(%q) = %+v, want strategy %v group %d",
				p.Name(), got, p.Strategy, p.GroupSize)
		}
		if got.Name() != p.Name() {
			t.Fatalf("ParsePlanName(%q).Name() = %q", p.Name(), got.Name())
		}
	}
	if p := DefaultDDP(); p.DDPBucketBytes <= 0 {
		t.Fatal("DDP default lost its bucket size")
	}
}

// TestParsePlanNameRejects: labels no Plan.Name emits fail.
func TestParsePlanNameRejects(t *testing.T) {
	for _, bad := range []string{
		"", "ddp", "HYBRID_SHARD", "HYBRID_0GPUs", "HYBRID_-2GPUs",
		"HYBRID_2GPU", "HYBRID_1GPUs", "HYBRID_2GPUsX", "HYBRID_02GPUs",
		"FULL_SHARDx", "ZERO3",
	} {
		if p, err := ParsePlanName(bad); err == nil {
			t.Errorf("ParsePlanName(%q) = %+v, want error", bad, p)
		}
	}
}

// FuzzParsePlanName: any label either fails or parses to a plan whose
// Name is that label — never a panic. Seeded with every name the
// round-trip test covers and the rejected labels.
func FuzzParsePlanName(f *testing.F) {
	for _, name := range []string{
		"DDP", "NO_SHARD", "FULL_SHARD", "SHARD_GRAD_OP", "HYBRID_1GPU",
		"HYBRID_2GPUs", "HYBRID_8GPUs", "", "HYBRID_0GPUs", "HYBRID_-2GPUs",
		"HYBRID_1GPUs", "HYBRID_02GPUs", "HYBRID_2GPUsX", "HYBRID_99999999999999999999GPUs",
	} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ParsePlanName(name)
		if err == nil && p.Name() != name {
			t.Fatalf("ParsePlanName(%q) = %+v, which is named %q", name, p, p.Name())
		}
	})
}
