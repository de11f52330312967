package chaos

import "testing"

// TestChaosStorm runs the multi-tenant flavor of the chaos contract: a
// seeded submission storm from several tenants crosses the full admission
// surface (quotas, queue-full, the weighted overload band) while an armed
// 2–3 node fleet churns through the accepted work and gets SIGKILLed
// mid-claim. The verifier requires quotas never exceeded (live at each
// accept and re-derived cold from journals), every rejection typed with a
// Retry-After, no tenant's accepted work lost or left non-terminal,
// expired-deadline jobs failed fast with a journaled reason, and the
// cold verifier every mode ends with (zero-error twobs and twfsck passes,
// exactly-once execution, byte-identical placements). The full
// 50-schedule acceptance run is the same harness via cmd/twchaos
// -mode storm -schedules 50 (make chaos-smoke runs a bounded slice).
func TestChaosStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run skipped in -short mode")
	}
	rep, err := RunStorm(Options{
		Schedules: 3,
		Seed:      29,
		Logf:      t.Logf,
		Verbose:   true,
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("schedule %d [%s]: %v", v.Schedule, v.RulesString(), v.Violation)
	}
	if !rep.OK() {
		t.Fatalf("contract violated: %s", rep.Summary())
	}
	if rep.Succeeded == 0 {
		t.Fatal("no schedule produced a successful job; byte-identity never checked")
	}
	t.Logf("chaos storm: %s", rep.Summary())
}
