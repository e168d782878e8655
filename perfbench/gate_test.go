package main

import "testing"

// TestGateCatchesPlantedFaults pins the correctness gate: a run with a
// planted wrong answer or a dropped commit must report Correct false, and
// the same run without the fault must pass, so the gate can neither pass
// nor fail trivially.
func TestGateCatchesPlantedFaults(t *testing.T) {
	for _, tc := range []struct {
		workload, plant string
	}{
		{"analytic", ""},
		{"analytic", plantWrongAnswer},
		{"served", ""},
		{"served", plantWrongAnswer},
		{"served", plantDropCommit},
		{"ingest-recover", ""},
		{"ingest-recover", plantDropCommit},
	} {
		t.Run(tc.workload+"/"+tc.plant, func(t *testing.T) {
			cfg := config{workload: tc.workload, seed: 3, seconds: 1, dir: t.TempDir(), plant: tc.plant}
			res, rep, err := execute(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if want := tc.plant == ""; res.Correct != want {
				t.Errorf("Correct = %v, want %v (gate failures: %v)", res.Correct, want, rep["wrong"])
			}
			if tc.plant == "" && res.Failed != 0 {
				t.Errorf("%d of %d operations failed: %v", res.Failed, res.Attempted, rep["op_errors"])
			}
		})
	}
}
