package main

import (
	"fmt"

	"repro/internal/core"
)

// coscheduleHorizon is campaign-coschedule's full horizon in steps: long
// enough that the listener's per-poll namespace scan dominates, short
// enough for dozens of timed campaigns per run.
const coscheduleHorizon = 200

// coscheduleDigests pins the report digest of the default seed (1) at each
// horizon the workload runs.
var coscheduleDigests = map[int]string{
	coscheduleHorizon:      "81fc4294d7e3050a",
	coscheduleHorizon / 10: "d7f3659e94a34143",
}

// coschedule is the fault-free co-scheduled campaign on the downscaled
// scenario, with no observer attached.
type coschedule struct {
	seed    int64
	s       *core.Scenario
	digests repeats
	last    *core.CampaignReport
}

func setupCoschedule(seed int64, _ string, rec *recorder) (instance, error) {
	s, err := downscaled(seed, rec)
	if err != nil {
		return nil, err
	}
	return &coschedule{seed: seed, s: s, digests: repeats{}}, nil
}

func (c *coschedule) horizons() (int, int) { return coscheduleHorizon, coscheduleHorizon / 10 }

func (c *coschedule) prepare(h int) (*unit, error) {
	var rep *core.CampaignReport
	return &unit{
		run: func(rec *recorder, parent int) error {
			return rec.time("core.Campaign", parent, func() error {
				var err error
				rep, err = core.Campaign(c.s, h)
				return err
			})
		},
		check: func() error {
			if rep.AnalysisJobs != h {
				return fmt.Errorf("%d analysis jobs for %d steps", rep.AnalysisJobs, h)
			}
			c.last = rep
			return c.digests.check("report digest", coscheduleDigests, c.seed, h, reportDigest(rep))
		},
	}, nil
}

// reportDigest hashes the report's virtual times, overlap and job counts.
func reportDigest(r *core.CampaignReport) string {
	return digest(fmt.Sprintf("%.17g %.17g %.17g %.17g %.17g %d %d",
		r.SimWallClock, r.TotalWallClock, r.SimpleWallClock, r.TrailingSeconds,
		r.OverlapFraction, r.MaxPileUp, r.AnalysisJobs))
}

func (c *coschedule) layers(rec *recorder, _ func(error)) (map[string]float64, error) {
	out := map[string]float64{
		"core.campaign_s":    median(rec.durations("core.Campaign")),
		"core.analysis_jobs": float64(c.last.AnalysisJobs),
		"core.max_pileup":    float64(c.last.MaxPileUp),
	}
	if err := synthesisDrives(c.s, c.seed, rec, out); err != nil {
		return nil, err
	}
	return out, engineDrives(c.s, coscheduleHorizon, out)
}
