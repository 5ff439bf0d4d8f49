package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
)

// downscaledOnce builds DownscaledScenario(1) once for the tests that
// share it; each run works on its own copy.
var downscaledOnce = sync.OnceValues(func() (*Scenario, error) { return DownscaledScenario(1) })

// Golden weathers: the facility weather of workflow-sim -resilience
// (fail-stop job death, flaky writes, a listener outage, a node drain) and
// the -gray flag defaults layered on top of it.
func goldenFaultWeather() *fault.Profile {
	return &fault.Profile{
		Seed:              1,
		JobFailureProb:    0.25,
		WriteFailProb:     0.10,
		WriteTruncateProb: 0.05,
		ListenerOutages:   []fault.Window{{Start: 600, End: 1200}},
		NodeDrains:        []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},
	}
}

func goldenGrayWeather() *fault.Profile {
	p := goldenFaultWeather()
	p.JobSlowdownProb, p.JobStallProb = 0.25, 0.2
	p.InSituSlowdownProb, p.SubmitFailProb, p.TransitDelayProb = 0.3, 0.15, 0.2
	return p
}

func goldenDigest(text string) string {
	sum := sha256.Sum256([]byte(text))
	return hex.EncodeToString(sum[:8])
}

func runDigest(r *Report) string {
	return goldenDigest(fmt.Sprintf("wall=%v starts=%v jobs=%d sim-ch=%v ana-ch=%v queue=%v\nres=%+v\n%s",
		r.WallClock, r.AnalysisJobStarts, len(r.AnalysisJobStarts), r.SimCoreHours, r.AnalysisCoreHours,
		r.PostQueueWait, r.Resilience, FormatDecisions(r.Decisions)))
}

func campaignDigest(r *CampaignReport) string {
	return goldenDigest(fmt.Sprintf("sim=%v total=%v simple=%v jobs=%d overlap=%v pileup=%d\nres=%+v\n%s",
		r.SimWallClock, r.TotalWallClock, r.SimpleWallClock, r.AnalysisJobs, r.OverlapFraction,
		r.MaxPileUp, r.Resilience, FormatDecisions(r.Decisions)))
}

// TestGoldenWorkflowDigests pins the wall clocks, analysis job starts,
// resilience accounting and decision logs of every workflow kind and of
// the co-scheduled campaign under calm, fail-stop and gray weather. Any
// change to the discrete-event engine that moves an event shows up here.
func TestGoldenWorkflowDigests(t *testing.T) {
	base, err := downscaledOnce()
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name    string
		steps   int
		queue   float64
		weather *fault.Profile
		want    map[Kind]string
	}{
		{"calm", 1, 1800, nil, map[Kind]string{
			InSitu:              "053cb8a001065f7b",
			Offline:             "8e6210bb20a5f9fc",
			CombinedSimple:      "214e003f4be6cc79",
			CombinedCoScheduled: "9e0dbf2afe3dbc50",
			CombinedInTransit:   "32a48701ccea9fe4",
		}},
		{"faults", 5, 0, goldenFaultWeather(), map[Kind]string{
			InSitu:              "59985c541d2e1975",
			Offline:             "e2914357c2857479",
			CombinedSimple:      "3df9402d92900226",
			CombinedCoScheduled: "49fe260fb2bc014e",
			CombinedInTransit:   "64e6ff3bb7eb74a3",
		}},
		{"gray", 5, 0, goldenGrayWeather(), map[Kind]string{
			InSitu:              "8877238a4adc08f9",
			Offline:             "916e1e14d3329aa8",
			CombinedSimple:      "3c63c28943ac0663",
			CombinedCoScheduled: "14ce56e6cd2ad077",
			CombinedInTransit:   "0e69519ebc9e48d4",
		}},
	}
	for _, tc := range runs {
		for _, k := range Kinds() {
			t.Run(fmt.Sprintf("run/%s/%s", tc.name, k), func(t *testing.T) {
				s := *base
				s.Timesteps, s.PostQueueWait, s.Faults = tc.steps, tc.queue, tc.weather
				r, err := Run(&s, k)
				if err != nil {
					t.Fatal(err)
				}
				if got := runDigest(r); got != tc.want[k] {
					t.Errorf("digest %s, want %s", got, tc.want[k])
				}
			})
		}
	}

	campaigns := []struct {
		name    string
		weather *fault.Profile
		budget  float64
		want    string
	}{
		{"calm", nil, 0, "fd1673b3506e528b"},
		{"faults", goldenFaultWeather(), 0, "e7e933c03bf84a22"},
		{"gray", goldenGrayWeather(), 900, "12cadaa3bf8d62b1"},
	}
	for _, tc := range campaigns {
		t.Run("campaign/"+tc.name, func(t *testing.T) {
			s := *base
			s.PostQueueWait, s.Faults = 0, tc.weather
			if tc.budget > 0 {
				s.Degrade = &DegradePolicy{StepBudget: tc.budget, RescueLost: true}
			}
			r, err := Campaign(&s, 12)
			if err != nil {
				t.Fatal(err)
			}
			if got := campaignDigest(r); got != tc.want {
				t.Errorf("digest %s, want %s", got, tc.want)
			}
		})
	}
}
