package chaos

import "testing"

// TestChaosDupStorm runs the duplicate-submission flavor of the chaos
// contract: racing goroutines submit identical specs — raw duplicates plus
// immediately retried idempotency keys — through one admission front end
// while an armed fleet executes the deduplicated work and gets SIGKILLed
// mid-run. The verifier requires exactly one execution per content digest
// (a re-execution only when a journaled predecessor generation failed),
// byte-identical result fan-out through every alias, durable key→job
// mappings, and the cold verifier every mode ends with (zero-error twobs
// and twfsck passes, byte-identical placements). The full 50-schedule acceptance run is the same
// harness via cmd/twchaos -mode dupstorm -schedules 50 (make
// chaos-smoke runs a bounded slice).
func TestChaosDupStorm(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos run skipped in -short mode")
	}
	rep, err := RunDupStorm(Options{
		Schedules: 3,
		Seed:      41,
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
		t.Fatal("no schedule produced a successful execution; byte-identity never checked")
	}
	if rep.Deduped == 0 {
		t.Fatal("no schedule produced a dedup alias; the fan-out contract never engaged")
	}
	t.Logf("chaos dupstorm: %s", rep.Summary())
}
