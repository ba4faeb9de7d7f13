package main

// referenceLoss holds each training workload's final loss after one
// untraced training call, recorded with TestRecordReferenceLoss for
// seeds 1–10: the mean, a tolerance of twice the largest deviation from
// it, and every recorded seed's exact bits.
var referenceLoss = map[string]lossRef{
	"pretrain-base": {mean: 1.1408203625792463, tol: 2 * 0.017419497429497888, exact: map[uint64]uint64{
		1: 0x3ff2720e959ab859, 2: 0x3ff21bac7c9b908c, 3: 0x3ff2882684fa942c, 4: 0x3ff24caa514941d9,
		5: 0x3ff21e72854e2775, 6: 0x3ff24d4e093722c9, 7: 0x3ff21688d5614388, 8: 0x3ff267190427574c,
		9: 0x3ff22659783a0704, 10: 0x3ff215b8bdac272c,
	}},
	"pretrain-3b-fsdp": {mean: 1.3782386104163273, tol: 2 * 0.098128436350334747, exact: map[uint64]uint64{
		1: 0x3ff5e4b7c13614a3, 2: 0x3ff65b5191143874, 3: 0x3ff79f330d6c1423, 4: 0x3ff60233b4d9f856,
		5: 0x3ff4cb9618829d49, 6: 0x3ff5af9a89061a12, 7: 0x3ff64f6262d962da, 8: 0x3ff52a9ab130a240,
		9: 0x3ff60bbd9252813e, 10: 0x3ff6a24bee2e06e8,
	}},
}
