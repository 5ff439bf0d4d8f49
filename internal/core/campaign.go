package core

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/fs"
	"repro/internal/integrity"
	"repro/internal/sched"
	"repro/internal/supervise"
)

// CampaignReport summarizes a full multi-snapshot analysis campaign under
// the co-scheduled combined workflow — the situation Table 4's caption
// gestures at ("the reader should keep in mind though that running the
// full analysis would involve 100 snapshots", §4.2) and the paper's
// pile-up discussion (§3.2).
type CampaignReport struct {
	// Timesteps analyzed.
	Timesteps int
	// SimWallClock is when the simulation job finishes; TotalWallClock
	// when the last analysis product lands.
	SimWallClock, TotalWallClock float64
	// SimpleWallClock is the equivalent simple (post-job-after-sim)
	// workflow's completion time for comparison.
	SimpleWallClock float64
	// OverlapFraction is the share of analysis jobs that started before
	// the simulation ended.
	OverlapFraction float64
	// MaxPileUp is the deepest analysis queue seen ("some level of
	// 'pile-up' in the analysis stack").
	MaxPileUp int
	// AnalysisJobs submitted and completed.
	AnalysisJobs int
	// TrailingSeconds is analysis work remaining after the simulation
	// finished.
	TrailingSeconds float64
	// Resilience accounts failures and recoveries when the scenario has a
	// fault profile (all zero otherwise).
	Resilience Resilience
	// Resume accounts checkpoint/restart activity when the campaign ran
	// through ResumableCampaign (all zero on a fresh, uncrashed run, so a
	// persisted campaign's report stays comparable to Campaign's).
	Resume ResumeStats
	// Decisions is the supervision decision log when the campaign was
	// supervised (nil otherwise).
	Decisions []supervise.Decision
	// Integrity accounts corruption detection and repair when the campaign
	// ran with bit-rot injection or scrubbing (all zero otherwise, so
	// reports stay comparable to integrity-free runs).
	Integrity integrity.Stats
	// ScrubDecisions is the scrub/repair decision log (nil when no
	// integrity machinery ran). Deterministic for a fixed seed.
	ScrubDecisions []integrity.Decision
}

// l2Path is the modelled storage path of one step's Level 2 file (also the
// relative on-disk product path under a persisted campaign's directory).
func l2Path(step int) string { return fmt.Sprintf("l2/step%03d.gio", step) }

// campaignHooks threads checkpoint/restart behaviour through the campaign
// engine without disturbing its event sequence: every hook fires
// synchronously inside an existing callback and schedules no virtual-time
// events, so a hooked run is event-for-event identical to a bare Campaign.
type campaignHooks struct {
	// startStep is the first step the simulation emits (resume skips the
	// journaled prefix); 0 or 1 means a full run.
	startStep int
	// preloadSteps lists steps whose Level 2 files survived a previous
	// incarnation and are restored into the modelled storage at t=0.
	preloadSteps []int
	// preSeenSteps lists steps whose analysis already completed; the
	// listener skips them. Preloaded steps *not* listed here are requeued.
	preSeenSteps []int
	// onStepLanded fires when a step's Level 2 write verifies intact;
	// onPostDone when a step's analysis job completes.
	onStepLanded func(step int)
	onPostDone   func(step int)
	// onPostStart fires with the start time of every analysis job attempt
	// (hedged backups and rescues included).
	onPostStart func(start float64)
	// runUntil, when positive, stops the virtual clock at that time — the
	// injected process-crash point. runCampaign reports crashed=true if
	// events were still pending.
	runUntil float64
	// onSetup hands ResumableCampaign the engine's clock and modelled
	// storage before any event runs — the integrity layer schedules bit-rot
	// events and timestamps scrub decisions through them.
	onSetup func(sim *des.Sim, storage *fs.System)
	// scrub, when non-nil, co-schedules periodic scrubber jobs on the
	// analysis cluster (the paper's co-scheduling slot reused for
	// background verification).
	scrub *scrubDriver
}

// scrubDriver runs a Scrubber as co-scheduled jobs inside the campaign
// engine: every Interval a small job lands on the post cluster and, on
// completion, re-verifies the next Batch ledger products.
type scrubDriver struct {
	scr *integrity.Scrubber
	pol ScrubPolicy
	// jobs counts submissions, done completions (done is subtracted from
	// the report's AnalysisJobs — scrub jobs are not analysis).
	jobs, done int
	// stopped halts the ticker when the simulation job ends; products
	// landing after that are covered by the final sweep.
	stopped bool
}

// Campaign runs a co-scheduled combined-workflow campaign over the given
// number of timesteps on the discrete-event clock, with analysis jobs
// auto-submitted by the listener as each step's Level 2 file lands.
func Campaign(s *Scenario, timesteps int) (*CampaignReport, error) {
	rep, _, err := runCampaign(s, CombinedCoScheduled, "sim", timesteps, campaignHooks{})
	return rep, err
}

// redriveLimit bounds write re-drives so a pathological profile (100%
// write failure) cannot loop forever; each re-drive draws an independent
// fault outcome, so under realistic rates the file always lands.
const redriveLimit = 8

// writeRedriveDelay is the virtual-seconds pause before a failed or
// truncated Level 2 write is re-driven.
const writeRedriveDelay = 5.0

// drainSweeps bounds the listener's post-run drain (Listener.Drain): a
// pathological profile refusing every submission cannot hang the run, and
// under realistic refusal rates every analysis is submitted well before
// the bound.
const drainSweeps = 40

// redriveWrite performs one Level 2 write, verifies the landed size
// against the writer's intent, and re-drives the write after delay
// seconds when it failed outright or landed silently truncated — the
// workflow engine's recovery loop for storage faults. done fires once,
// with true when the file is verified intact and false when the write was
// given up.
func redriveWrite(sim *des.Sim, storage *fs.System, res *Resilience, path string, bytes, delay float64, attempt int, done func(landed bool)) {
	storage.WriteChecked(path, bytes, 0, nil, func(err error) {
		if err == nil {
			if _, verr := storage.VerifySize(path, bytes); verr == nil {
				done(true)
				return
			}
			storage.Delete(path) // truncated: drop the short file
		}
		if attempt+1 >= redriveLimit {
			done(false) // give up; the file is lost
			return
		}
		res.WritesRedriven++
		sim.After(delay, func() {
			redriveWrite(sim, storage, res, path, bytes, delay, attempt+1, done)
		})
	})
}

// staging returns a combined workflow's per-step Level 2 write and read
// seconds and the post job's extra queue wait. In-transit stages Level 2
// through shared memory and holds its analysis partition alongside the
// run, so all three are zero.
func staging(s *Scenario, ph *phases, kind Kind) (l2Write, l2Read, queueWait float64) {
	if kind == CombinedInTransit {
		return 0, 0, 0
	}
	return ph.l2Write, ph.l2Read, s.PostQueueWait
}

// runCampaign is the discrete-event engine behind every combined
// workflow: Campaign and ResumableCampaign (persistence and crash
// injection via hooks) and Run's simple, co-scheduled and in-transit
// rows. The simulation job emits one Level 2 file per step; the kind
// decides the rest:
//
//   - co-scheduled: the listener submits one analysis job per landed
//     file while the simulation runs (§3.2);
//   - simple and in-transit: one post job covering every step is queued
//     when the simulation job completes or is given up;
//   - in-transit: Level 2 moves through shared memory (see staging), so
//     storage faults do not apply.
//
// simName names the simulation job; fault draws and decision-log lines
// are keyed by it.
func runCampaign(s *Scenario, kind Kind, simName string, timesteps int, h campaignHooks) (*CampaignReport, bool, error) {
	if timesteps <= 0 {
		return nil, false, fmt.Errorf("core: campaign needs timesteps > 0")
	}
	start := h.startStep
	if start < 1 {
		start = 1
	}
	ph, err := computePhases(s)
	if err != nil {
		return nil, false, err
	}
	l2Write, l2Read, queueWait := staging(s, ph, kind)
	perStepPost := l2Read + ph.l2Redist + ph.postCenter + ph.l3Write

	var sim des.Sim
	inj := s.injector()
	// The observer's clock is the engine's clock: spans and metrics are
	// stamped with virtual time, so trace output for a fixed seed is
	// byte-identical across runs (the determinism contract in obs).
	s.Obs.SetClock(sim.Now)
	camp := s.Obs.Begin("campaign", s.Name)
	storage := fs.New(&sim, "lustre")
	if kind != CombinedInTransit {
		storage.SetFaults(inj)
	}
	if h.onSetup != nil {
		h.onSetup(&sim, storage)
	}
	for _, step := range h.preloadSteps {
		storage.Restore(l2Path(step), ph.levels.Level2Bytes)
	}
	simCluster, err := sched.NewCluster(&sim, s.Machine)
	if err != nil {
		return nil, false, err
	}
	faultCluster(simCluster, inj, s.retry())
	postCluster, err := sched.NewCluster(&sim, s.PostMachine)
	if err != nil {
		return nil, false, err
	}
	faultCluster(postCluster, inj, s.retry())
	postCluster.ExtraQueueWait = func(*sched.Job) float64 { return queueWait }
	// One supervisor watches both clusters: hedged re-execution and loss
	// declarations land in a single ordered decision log.
	deg := s.degradePolicy()
	sup := s.supervision(&sim)
	simCluster.Supervise = sup
	postCluster.Supervise = sup
	simCluster.Obs = s.Obs
	postCluster.Obs = s.Obs
	if sup != nil {
		sup.Obs = s.Obs
	}
	pl := newStepPlanner(s, ph, inj, deg, l2Write, perStepPost)
	rep := &CampaignReport{Timesteps: timesteps}
	// Hedged backups re-run the primary's OnStart and rescued analysis
	// jobs re-fire completions, so the persistence hooks are deduplicated
	// per step — a product can land (and be journaled) at most once.
	landedOnce := map[int]bool{}
	postOnce := map[int]bool{}
	stepLanded := func(step int) {
		if landedOnce[step] {
			return
		}
		landedOnce[step] = true
		if s.Obs != nil {
			m := s.Obs.Metrics()
			m.Counter("core.l2_files_landed").Inc()
			m.Counter("core.l2_bytes_landed").Add(ph.levels.Level2Bytes)
		}
		if h.onStepLanded != nil {
			h.onStepLanded(step)
		}
	}
	postDone := func(step int) {
		if h.onPostDone == nil || postOnce[step] {
			return
		}
		postOnce[step] = true
		h.onPostDone(step)
	}
	var jobStarts []float64
	newPostJob := func(name string, dur float64) *sched.Job {
		j := &sched.Job{Name: name, Nodes: s.PostNodes, Duration: dur}
		j.OnStart = func(j *sched.Job) {
			jobStarts = append(jobStarts, j.StartTime)
			if h.onPostStart != nil {
				h.onPostStart(j.StartTime)
			}
		}
		if deg.RescueLost {
			rescueOnLoss(postCluster, j, &rep.Resilience, sup)
		}
		return j
	}
	var listener *sched.Listener
	if kind == CombinedCoScheduled {
		seq := 0
		listener = &sched.Listener{
			Sim: &sim, FS: storage, Cluster: postCluster,
			Prefix:       "l2/",
			PollInterval: s.ListenerPoll,
			Faults:       inj,
			Obs:          s.Obs,
			MakeJob: func(path string, f *fs.File) *sched.Job {
				seq++
				step := seq
				stepKnown := false
				if _, err := fmt.Sscanf(path, "l2/step%d.gio", &step); err == nil {
					stepKnown = true
				}
				// Size the job for the step the file belongs to: a
				// degraded step's job carries the spilled center work.
				j := newPostJob(fmt.Sprintf("post-%03d", seq), pl.postDur(step))
				if h.onPostDone != nil && stepKnown {
					j.OnComplete = func(*sched.Job) { postDone(step) }
				}
				return j
			},
		}
		if sup != nil {
			listener.Breaker = supervise.NewBreaker(sim.Now)
		}
		if err := listener.Start(); err != nil {
			return nil, false, err
		}
		for _, step := range h.preSeenSteps {
			listener.MarkSeen(l2Path(step))
		}
	}
	// Per-step durations under gray in-situ slowdowns and the degrade
	// policy; fault-free this is exactly remaining * nominal stepDur.
	offsets, simDur := pl.planEmissions(start, timesteps, &rep.Resilience, sup)
	// wrapUp ends the simulation side at time now. Co-scheduled: "an
	// additional instance of the listener would run after the job
	// completes to catch the last output data" (§3.2) — sweep one tick
	// later so the final step's Level 2 file, whose visibility event shares
	// this timestamp, is seen; Drain keeps re-sweeping while submit
	// refusals (or a cooling breaker) hold back the last analyses. Simple
	// and in-transit: one post job covering every step, queued after the
	// simulation ("One 4-node job covering all timesteps ... queued after
	// sim", Table 4).
	//
	// A failed final write is re-driven after the simulation ends, so the
	// listener stops only once every write in flight has landed or been
	// given up; otherwise the closing drain would miss the re-driven file.
	inflight, draining := 0, false
	stopListener := func() {
		listener.Stop()
		listener.Drain(s.ListenerPoll, drainSweeps)
	}
	wrapUp := func(now float64) {
		rep.SimWallClock = now
		if h.scrub != nil {
			h.scrub.stopped = true
		}
		if listener != nil {
			sim.After(1, func() {
				if inflight > 0 {
					draining = true
					return
				}
				stopListener()
			})
			return
		}
		total := 0.0
		for step := start; step <= timesteps; step++ {
			total += pl.postDur(step)
		}
		_ = postCluster.Submit(newPostJob("post-000", total))
	}
	simJob := &sched.Job{
		Name: simName, Nodes: s.SimNodes,
		Duration: simDur,
		OnStart: func(j *sched.Job) {
			// Writes are verified and re-driven on failure or truncation;
			// outputs of an attempt that later dies never land.
			attempt := j.Attempt
			for step := start; step <= timesteps; step++ {
				at := j.StartTime + offsets[step]
				step := step
				sim.At(at, func() {
					if j.Attempt != attempt {
						return // this attempt failed before reaching the step
					}
					if s.Obs != nil {
						// The step's segment ends here; lay its span down
						// retroactively under the campaign root. Uncharged:
						// the sim job's span already carries these nodes.
						dur, degraded := pl.stepDur(step)
						sp := s.Obs.SpanAt(camp, "step", fmt.Sprintf("step-%03d", step), at-dur, at)
						if degraded {
							sp.Arg("degraded", "spilled centers off-line")
						}
					}
					inflight++
					redriveWrite(&sim, storage, &rep.Resilience,
						l2Path(step), ph.levels.Level2Bytes, writeRedriveDelay, 0, func(landed bool) {
							if landed {
								stepLanded(step)
							}
							inflight--
							if inflight == 0 && draining {
								draining = false
								stopListener()
							}
						})
				})
			}
		},
		OnComplete: func(j *sched.Job) { wrapUp(j.EndTime) },
		// Supervision may declare the sim job lost: wrap up anyway so the
		// listener stops and whatever landed still gets analyzed — the
		// campaign degrades instead of spinning the poll loop forever.
		OnGiveUp: func(*sched.Job) { wrapUp(sim.Now()) },
	}
	if err := simCluster.Submit(simJob); err != nil {
		return nil, false, err
	}
	// The background scrubber rides the co-scheduling allocation: small
	// periodic jobs on the analysis cluster re-verify committed products.
	// The ticker stops with the simulation job; products committed after
	// that are covered by the final full sweep.
	if h.scrub != nil {
		d := h.scrub
		d.scr.OnGiveUp = func(p integrity.Product) {
			sup.Note(p.Path, "integrity-give-up", "corrupt product could not be re-derived; escalating")
		}
		var tick func()
		tick = func() {
			if d.stopped {
				return
			}
			d.jobs++
			job := &sched.Job{Name: fmt.Sprintf("scrub-%03d", d.jobs), Nodes: d.pol.Nodes, Duration: d.pol.JobSeconds}
			job.OnComplete = func(*sched.Job) {
				d.done++
				d.scr.Stats.ScrubJobs++
				d.scr.SweepNext(d.pol.Batch)
			}
			if err := postCluster.Submit(job); err != nil {
				d.stopped = true
				return
			}
			sim.After(d.pol.Interval, tick)
		}
		sim.After(d.pol.Interval, tick)
	}
	if h.runUntil > 0 {
		sim.RunUntil(h.runUntil)
		if sim.Pending() > 0 {
			camp.Arg("crashed", "injected process crash").Done()
			return rep, true, nil // the injected crash struck mid-campaign
		}
	} else {
		sim.Run()
	}
	camp.Done()
	rep.Resilience.addCluster(simCluster)
	rep.Resilience.addCluster(postCluster)
	rep.Resilience.addFS(storage)
	if listener != nil {
		rep.Resilience.addListener(listener)
	}
	rep.Decisions = sup.Decisions()
	rep.TotalWallClock = sim.Now()
	rep.AnalysisJobs = len(postCluster.Finished())
	if h.scrub != nil {
		// Scrub jobs share the cluster but are not analysis.
		rep.AnalysisJobs -= h.scrub.done
	}
	rep.MaxPileUp = postCluster.MaxPendingSeen
	overlapped := 0
	for _, start := range jobStarts {
		if start < rep.SimWallClock {
			overlapped++
		}
	}
	if len(jobStarts) > 0 {
		rep.OverlapFraction = float64(overlapped) / float64(len(jobStarts))
	}
	rep.TrailingSeconds = rep.TotalWallClock - rep.SimWallClock
	rep.SimpleWallClock = rep.SimWallClock + float64(timesteps)*perStepPost
	return rep, false, nil
}
