package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
)

// resilientHorizon is campaign-resilient's full horizon in steps.
const resilientHorizon = 100

// persistedUnits is how many crash-then-resume pairs of the persisted
// campaign the traced run makes.
const persistedUnits = 5

// resilient is the co-scheduled campaign under a seeded fault profile, with
// supervision and a live observer whose trace, span tree, cost table and
// metrics are exported after each run. Its timed unit keeps the campaign in
// memory. The persisted form of the same campaign (ResumableCampaign: every
// product fsync-committed, bit rot, scrubbing, one injected crash and a
// resume) runs in the traced pass only: its wall time follows the disk's
// flush latency, which on the machine this benchmark was tuned on varied
// twofold from one minute to the next, more than any bound could hold.
type resilient struct {
	seed    int64
	s       *core.Scenario
	dir     string
	n       int
	digests repeats
	// The last checked full-horizon unit's observer, for the layer metrics.
	lastObs *obs.Observer
}

func setupResilient(seed int64, dir string, rec *recorder) (instance, error) {
	s, err := downscaled(seed, rec)
	if err != nil {
		return nil, err
	}
	return &resilient{seed: seed, s: s, dir: dir, digests: repeats{}}, nil
}

func (r *resilient) horizons() (int, int) { return resilientHorizon, resilientHorizon / 10 }

// The weather is cmd/workflow-sim's, so the benchmark injects what the
// program's own resilience runs inject: defaultFaultProfile (the facility
// weather of -resilience) with the -gray flags' defaults layered on top, as
// -resilience -gray does, and for the persisted pass the bit-rot rate and
// scrub interval of the README's and CI's persisted example (-bitrot 0.5
// -scrub 300).
const (
	jobDeathProb   = 0.25 // defaultFaultProfile
	jobSlowProb    = 0.25 // -gray-slow
	jobStallProb   = 0.2  // -gray-stall
	inSituSlowProb = 0.3  // -gray-insitu
	submitFailProb = 0.15 // -gray-submit
	transitLagProb = 0.2  // -gray-lag
	bitRotProb     = 0.5  // -bitrot
	scrubInterval  = 300  // -scrub
)

// facilityWeather is workflow-sim's -resilience -gray profile for the seed,
// less defaultFaultProfile's storage write faults (10% failed, 5% truncated
// writes). The campaign re-drives a failed or truncated Level 2 write five
// virtual seconds later; when that happens to the final step, the file
// lands after the listener's closing drain has found nothing left to
// submit, and that step's analysis never runs (seed 2 at 100 steps: 99
// analysis jobs, with write failures the only fault). With write faults in,
// about 15% of seeds would fail their output checks on that defect.
func facilityWeather(seed int64) *fault.Profile {
	return &fault.Profile{
		Seed:               seed,
		JobFailureProb:     jobDeathProb,
		ListenerOutages:    []fault.Window{{Start: 600, End: 1200}},
		NodeDrains:         []fault.Drain{{Window: fault.Window{Start: 400, End: 900}, Nodes: 2}},
		JobSlowdownProb:    jobSlowProb,
		JobStallProb:       jobStallProb,
		InSituSlowdownProb: inSituSlowProb,
		SubmitFailProb:     submitFailProb,
		TransitDelayProb:   transitLagProb,
	}
}

// weather is the timed unit's profile: the facility weather without the
// faults drawn per job attempt (deaths, slowdowns, stalls). One of those
// that lands on the single simulation job restarts or stretches the whole
// campaign, so a run's cost would depend on the seed more than on the code
// (two of ten seeds doubled run_s when they were in). The persisted pass
// keeps them.
func (r *resilient) weather() *fault.Profile {
	p := facilityWeather(r.seed)
	p.JobFailureProb, p.JobSlowdownProb, p.JobStallProb = 0, 0, 0
	return p
}

func (r *resilient) prepare(h int) (*unit, error) {
	s := *r.s
	s.Faults = r.weather()
	s.Obs = obs.New("campaign", nil)
	var rep *core.CampaignReport
	return &unit{
		run: func(rec *recorder, parent int) error {
			if err := rec.time("core.Campaign", parent, func() error {
				var err error
				rep, err = core.Campaign(&s, h)
				return err
			}); err != nil {
				return err
			}
			return rec.time("obs.export", parent, func() error { return export(s.Obs) })
		},
		check: func() error {
			if rep.AnalysisJobs != h {
				return fmt.Errorf("%d analysis jobs for %d steps", rep.AnalysisJobs, h)
			}
			if err := r.digests.check("report and decision-log digest", nil, r.seed, h,
				digest(reportDigest(rep)+"\n"+decisionLog(rep))); err != nil {
				return err
			}
			if h == resilientHorizon {
				r.lastObs = s.Obs
			}
			return nil
		},
	}, nil
}

// export renders everything the observer holds, as workflow-sim's
// -trace, -spantree, -cost and -metrics flags do.
func export(o *obs.Observer) error {
	var b bytes.Buffer
	if err := obs.WriteTrace(&b, o); err != nil {
		return err
	}
	if err := obs.WriteSpanTree(&b, o); err != nil {
		return err
	}
	if err := obs.Cost(o, obs.TitanChargePolicy()).WriteTable(&b); err != nil {
		return err
	}
	return o.Metrics().WriteText(&b)
}

func decisionLog(rep *core.CampaignReport) string {
	var b strings.Builder
	for _, d := range rep.Decisions {
		b.WriteString(d.String() + "\n")
	}
	for _, d := range rep.ScrubDecisions {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

// dirSize totals a campaign directory: its files and their bytes, and the
// mean size of a Level 2 product.
type dirSize struct{ files, total, product int64 }

// productSums hashes the delivered products (l2/, centers/ and the merged
// catalog) and sizes the whole directory.
func productSums(dir string) (map[string]string, dirSize, error) {
	sums := map[string]string{}
	var size dirSize
	var l2Bytes, l2Files int64
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		size.files++
		size.total += info.Size()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "l2/") && !strings.HasPrefix(rel, "centers/") && rel != "catalog.txt" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		sums[rel] = hex.EncodeToString(sum[:])
		if strings.HasPrefix(rel, "l2/") {
			l2Bytes += int64(len(data))
			l2Files++
		}
		return nil
	})
	if l2Files > 0 {
		size.product = l2Bytes / l2Files
	}
	return sums, size, err
}

func sameSums(want, got map[string]string) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d products, want %d", len(got), len(want))
	}
	for path, sum := range want {
		if got[path] != sum {
			return fmt.Errorf("product %s differs from the fault-free run", path)
		}
	}
	return nil
}

func (r *resilient) layers(rec *recorder, count func(error)) (map[string]float64, error) {
	out := map[string]float64{
		"obs.spans":    float64(len(r.lastObs.Spans())),
		"obs.export_s": median(rec.durations("obs.export")),
	}
	if err := r.persisted(rec, count, out); err != nil {
		return nil, err
	}
	if err := synthesisDrives(r.s, r.seed, rec, out); err != nil {
		return nil, err
	}
	if err := engineDrives(r.s, resilientHorizon, out); err != nil {
		return nil, err
	}
	obsDrives(r.lastObs, out)
	return out, nil
}

// newDir names a fresh campaign directory.
func (r *resilient) newDir() string {
	r.n++
	return filepath.Join(r.dir, fmt.Sprintf("campaign-%d", r.n))
}

// persisted runs the persisted campaign: a fault-free, crash-free
// reference, then crash-then-resume pairs under the full facility weather,
// at-rest bit rot and co-scheduled scrubbing.
// Each pair's products must be byte-identical to the reference's, nothing
// may escalate, and the decision logs must repeat.
func (r *resilient) persisted(rec *recorder, count func(error), out map[string]float64) error {
	const h = resilientHorizon
	ref := r.newDir()
	clean := *r.s
	if _, err := core.ResumableCampaign(&clean, h, ref, r.seed); err != nil {
		return fmt.Errorf("reference campaign: %w", err)
	}
	want, _, err := productSums(ref)
	if err != nil {
		return err
	}
	logs := repeats{}
	var last *core.CampaignReport
	var size dirSize
	for i := 0; i < persistedUnits; i++ {
		d := r.newDir()
		s := *r.s
		s.Faults = facilityWeather(r.seed)
		s.Faults.BitRotProb = bitRotProb
		s.Faults.Crashes = []fault.Crash{{AtStep: h / 2}}
		s.Scrub = &core.ScrubPolicy{Interval: scrubInterval}
		s.Obs = obs.New("campaign", nil)
		var rep *core.CampaignReport
		pair := rec.begin("core.ResumableCampaign.pair", 0)
		err := rec.time("core.ResumableCampaign.crash", pair, func() error {
			_, err := core.ResumableCampaign(&s, h, d, r.seed)
			return err
		})
		if errors.Is(err, core.ErrCampaignCrashed) {
			err = rec.time("core.ResumableCampaign.resume", pair, func() error {
				var err error
				rep, err = core.ResumableCampaign(&s, h, d, r.seed)
				return err
			})
		} else {
			err = fmt.Errorf("first incarnation did not crash: %v", err)
		}
		rec.end(pair)
		if err == nil {
			var got map[string]string
			got, size, err = productSums(d)
			if err == nil {
				err = sameSums(want, got)
			}
		}
		if err == nil && rep.Integrity.Escalated != 0 {
			err = fmt.Errorf("%d products escalated", rep.Integrity.Escalated)
		}
		if err == nil {
			err = logs.check("persisted decision-log digest", nil, r.seed, h, digest(decisionLog(rep)))
			last = rep
		}
		count(err)
	}
	if last == nil {
		return nil // every pair failed its check; the failures are counted
	}
	in, res := last.Integrity, last.Resilience
	out["sched.job_attempts"] = float64(res.JobAttempts)
	out["sched.resubmits"] = float64(res.Resubmits)
	out["supervise.hedges_launched"] = float64(res.HedgesLaunched)
	out["supervise.hedge_win_ratio"] = ratio(res.HedgeWins, res.HedgesLaunched)
	out["core.crash_resume_s"] = median(rec.durations("core.ResumableCampaign.pair"))
	out["core.resume_s"] = median(rec.durations("core.ResumableCampaign.resume"))
	out["ckpt.files"] = float64(size.files)
	out["ckpt.bytes"] = float64(size.total)
	out["integrity.verified"] = float64(in.Verified)
	out["integrity.scrub_jobs"] = float64(in.ScrubJobs)
	out["integrity.repaired"] = float64(in.Repaired)
	out["integrity.repair_ratio"] = ratio(in.Repaired, in.Corruptions)
	return commitDrive(filepath.Join(r.dir, "commit"), int(size.product), out)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
