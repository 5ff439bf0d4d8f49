package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fault"
)

// testProfile is the fault mix the resilience tests run under.
func testProfile(seed int64) fault.Profile {
	return fault.Profile{
		Seed:              seed,
		JobFailureProb:    0.3,
		WriteFailProb:     0.25,
		WriteTruncateProb: 0.15,
		ListenerOutages:   []fault.Window{{Start: 600, End: 1500}},
		NodeDrains:        []fault.Drain{{Window: fault.Window{Start: 500, End: 1000}, Nodes: 2}},
	}
}

// The failure path must be strictly additive: a zero-rate profile yields
// reports identical to no profile at all, for every workflow kind.
func TestZeroProfileReportsIdentical(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Timesteps = 3
	s.PostQueueWait = 0
	for _, k := range Kinds() {
		plain := *s
		plain.Faults = nil
		base, err := Run(&plain, k)
		if err != nil {
			t.Fatal(err)
		}
		zeroed := *s
		zeroed.Faults = &fault.Profile{Seed: 99} // zero rates: injects nothing
		zr, err := Run(&zeroed, k)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base, zr) {
			t.Errorf("%s: zero-rate profile changed the report:\n  base    %+v\n  zeroed  %+v", k, base, zr)
		}
		// JobAttempts counts successful attempts too; every fault-related
		// field must stay zero.
		res := zr.Resilience
		res.JobAttempts = 0
		if res != (Resilience{}) {
			t.Errorf("%s: zero-rate profile injected faults: %+v", k, zr.Resilience)
		}
	}
}

// Property (satellite): the same fault seed yields byte-identical Report
// output across runs — the injector is deterministic under the DES clock.
func TestSameFaultSeedYieldsIdenticalReports(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Timesteps = 4
	s.PostQueueWait = 0
	for _, seed := range []int64{1, 2, 7} {
		p := testProfile(seed)
		render := func() string {
			rows, err := ResilienceStudy(s, p)
			if err != nil {
				t.Fatal(err)
			}
			out := FormatResilience(rows)
			// Fold the complete faulted reports in too, not just the
			// formatted table: every field must reproduce.
			for _, row := range rows {
				out += fmt.Sprintf("%+v\n", *row.Faulted)
			}
			return out
		}
		a, b := render(), render()
		if a != b {
			t.Errorf("seed %d: reports differ across runs:\n--- a ---\n%s--- b ---\n%s", seed, a, b)
		}
	}
}

func TestDifferentFaultSeedsDiffer(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Timesteps = 4
	s.PostQueueWait = 0
	render := func(seed int64) string {
		rows, err := ResilienceStudy(s, testProfile(seed))
		if err != nil {
			t.Fatal(err)
		}
		return FormatResilience(rows)
	}
	if render(1) == render(2) {
		t.Error("fault seeds 1 and 2 produced identical studies")
	}
}

// Under faults the workflows must degrade (never speed up), recover work
// (retries, redriven writes), and account the damage.
func TestFaultedRunsDegradeAndRecover(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.Timesteps = 5
	s.PostQueueWait = 0
	rows, err := ResilienceStudy(s, testProfile(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(Kinds()) {
		t.Fatalf("rows = %d", len(rows))
	}
	anyFailures, anyWriteFaults := false, false
	for _, row := range rows {
		if row.Faulted.WallClock < row.Baseline.WallClock-1e-9 {
			t.Errorf("%s: faults sped the run up: %v < %v", row.Workflow, row.Faulted.WallClock, row.Baseline.WallClock)
		}
		res := row.Faulted.Resilience
		if res.JobFailures > 0 {
			anyFailures = true
			if res.JobFailures != res.Resubmits+res.JobsLost {
				t.Errorf("%s: failures %d != resubmits %d + lost %d", row.Workflow, res.JobFailures, res.Resubmits, res.JobsLost)
			}
			if res.TimeLostSeconds <= 0 || res.LostCoreHours <= 0 {
				t.Errorf("%s: failures with no time/charge accounted: %+v", row.Workflow, res)
			}
		}
		if res.WriteFailures > 0 || res.TruncatedWrites > 0 {
			anyWriteFaults = true
		}
		if row.Workflow == CombinedInTransit && (res.WriteFailures > 0 || res.TruncatedWrites > 0) {
			t.Errorf("in-transit saw storage faults despite bypassing the file system: %+v", res)
		}
	}
	if !anyFailures {
		t.Error("no job failures across any workflow at 30% rate")
	}
	if !anyWriteFaults {
		t.Error("no write faults across disk-staged workflows at 40% combined rate")
	}
}

// The co-scheduled workflow must not lose analysis products to write
// faults: a failed or truncated Level 2 write is re-driven, and the
// listener's closing drain waits for the final step's re-drive instead of
// stopping before it lands. Swept over fault seeds and horizons for both
// entry points into the engine.
func TestCoScheduledRecoversAllSteps(t *testing.T) {
	base, err := downscaledOnce()
	if err != nil {
		t.Fatal(err)
	}
	faults, redriven := 0, 0
	for _, steps := range []int{20, 100} {
		for seed := int64(1); seed <= 20; seed++ {
			s := *base
			s.Timesteps, s.PostQueueWait = steps, 0
			s.Faults = &fault.Profile{Seed: seed, WriteFailProb: 0.10, WriteTruncateProb: 0.05}
			t.Run(fmt.Sprintf("campaign/%dsteps/seed%d", steps, seed), func(t *testing.T) {
				rep, err := Campaign(&s, steps)
				if err != nil {
					t.Fatal(err)
				}
				if rep.AnalysisJobs != steps {
					t.Errorf("analysis jobs = %d, want %d despite %d write failures and %d truncations",
						rep.AnalysisJobs, steps, rep.Resilience.WriteFailures, rep.Resilience.TruncatedWrites)
				}
				faults += rep.Resilience.WriteFailures + rep.Resilience.TruncatedWrites
				redriven += rep.Resilience.WritesRedriven
			})
			t.Run(fmt.Sprintf("run/%dsteps/seed%d", steps, seed), func(t *testing.T) {
				r, err := Run(&s, CombinedCoScheduled)
				if err != nil {
					t.Fatal(err)
				}
				if len(r.AnalysisJobStarts) != steps {
					t.Errorf("analysis jobs started = %d, want %d", len(r.AnalysisJobStarts), steps)
				}
			})
		}
	}
	if faults == 0 || redriven == 0 {
		t.Errorf("sweep injected %d storage faults and re-drove %d writes; want both > 0", faults, redriven)
	}
}

// A heavier write-fault rate than the sweep above, on the unmodified
// downscaled scenario: every step's analysis job still runs.
func TestCampaignWithFaultsRecoversAllJobs(t *testing.T) {
	s, err := DownscaledScenario(1)
	if err != nil {
		t.Fatal(err)
	}
	s.PostQueueWait = 0
	p := fault.Profile{Seed: 2, WriteFailProb: 0.2, WriteTruncateProb: 0.1}
	s.Faults = &p
	rep, err := Campaign(s, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AnalysisJobs != 15 {
		t.Errorf("analysis jobs = %d, want 15 despite %d write failures and %d truncations",
			rep.AnalysisJobs, rep.Resilience.WriteFailures, rep.Resilience.TruncatedWrites)
	}
	if rep.Resilience.WriteFailures+rep.Resilience.TruncatedWrites == 0 {
		t.Error("expected storage faults at 30% combined rate over 15 steps")
	}
	if rep.Resilience.WritesRedriven == 0 {
		t.Error("no writes re-driven despite storage faults")
	}
}
