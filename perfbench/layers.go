package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cosmo"
	"repro/internal/des"
	"repro/internal/fs"
	"repro/internal/obs"
	"repro/internal/sched"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order. A traced
// run reports all of them; a layer its workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	// Set-up of both campaigns, against setup_s.
	{"core.synthesize_s", "s"},
	{"cosmo.expected_counts_s", "s"},
	// campaign-coschedule, against run_s, steps_per_s, step_cost_growth.
	{"core.campaign_s", "s"},
	{"fs.list_us", "us"},
	{"sched.listener_sweep_us", "us"},
	{"des.event_ns", "ns"},
	{"sched.submit_complete_us", "us"},
	{"core.analysis_jobs", "count"},
	{"core.max_pileup", "count"},
	// campaign-resilient, against run_s; the persisted campaign's rows come
	// from the traced pass alone.
	{"core.crash_resume_s", "s"},
	{"core.resume_s", "s"},
	{"ckpt.files", "count"},
	{"ckpt.bytes", "bytes"},
	{"ckpt.commit_us", "us"},
	{"integrity.verified", "count"},
	{"integrity.scrub_jobs", "count"},
	{"integrity.repaired", "count"},
	{"integrity.repair_ratio", "ratio"},
	{"sched.job_attempts", "count"},
	{"sched.resubmits", "count"},
	{"supervise.hedges_launched", "count"},
	{"supervise.hedge_win_ratio", "ratio"},
	{"obs.spans", "count"},
	{"obs.export_s", "s"},
	{"obs.counter_inc_ns", "ns"},
	{"obs.span_ns", "ns"},
	// halo-pipeline, against run_s, steps_per_s and (ic) setup_s.
	{"ic.generate_s", "s"},
	{"nbody.step_s", "s"},
	{"cosmotools.halofinder_s", "s"},
	{"cosmotools.powerspectrum_s", "s"},
	{"cosmotools.somass_s", "s"},
	{"cosmotools.subhalofinder_s", "s"},
	{"halo.halos", "count"},
	{"halo.largest", "count"},
	{"gio.l2_write_s", "s"},
	{"gio.l2_read_s", "s"},
	{"gio.l2_bytes", "bytes"},
	{"cosmotools.offline_centers_s", "s"},
	{"center.pairs", "count"},
	{"center.ns_per_pair", "ns"},
	// Every workload, against run_s: CPU by module, from the profile.
	{"core.cpu_share", "share"},
	{"cosmo.cpu_share", "share"},
	{"des.cpu_share", "share"},
	{"fs.cpu_share", "share"},
	{"sched.cpu_share", "share"},
	{"obs.cpu_share", "share"},
	{"fault.cpu_share", "share"},
	{"supervise.cpu_share", "share"},
	{"ckpt.cpu_share", "share"},
	{"integrity.cpu_share", "share"},
	{"catalog.cpu_share", "share"},
	{"gio.cpu_share", "share"},
	{"ic.cpu_share", "share"},
	{"nbody.cpu_share", "share"},
	{"fft.cpu_share", "share"},
	{"grid.cpu_share", "share"},
	{"cosmotools.cpu_share", "share"},
	{"halo.cpu_share", "share"},
	{"center.cpu_share", "share"},
	{"kdtree.cpu_share", "share"},
	{"so.cpu_share", "share"},
	{"subhalo.cpu_share", "share"},
	{"powerspec.cpu_share", "share"},
	{"gc.cpu_share", "share"},
	{"syscall.cpu_share", "share"},
	{"other.cpu_share", "share"},
	{"bench.unattributed_share", "share"},
	{"bench.trace_overhead", "ratio"},
}

// perOp times fn and returns its median cost in seconds per call: the
// batch size grows until a batch takes at least 2 ms, then 15 batches run.
func perOp(fn func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(t0) >= 2*time.Millisecond || n >= 1<<24 {
			break
		}
		n *= 2
	}
	batches := make([]float64, 15)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batches[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(batches)
}

// downscaled builds core.DownscaledScenario as the campaign tools do
// (cmd/workflow-sim's -campaign path: no extra queue wait for the small
// Level 2 jobs).
func downscaled(seed int64, rec *recorder) (*core.Scenario, error) {
	var s *core.Scenario
	err := rec.time("core.DownscaledScenario", 0, func() error {
		var err error
		s, err = core.DownscaledScenario(seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	s.PostQueueWait = 0
	return s, nil
}

// downscaledMaxSize is the cap on halo size (particles) DownscaledScenario
// synthesizes up to; the scenario does not carry it.
const downscaledMaxSize = 2_600_000

// synthesisDrives times the two calls that make up the campaigns' set-up:
// population synthesis with the options the scenario was built from, and
// the mass-function integral inside it with the binning synthesis derives.
// The drive's population must equal the scenario's, and the integral's
// counts the population's aggregated bins, so a change to the scenario
// fails here instead of timing a different call.
func synthesisDrives(s *core.Scenario, seed int64, rec *recorder, out map[string]float64) error {
	p := cosmo.Default()
	opts := core.SynthesisOptions{BoxMpch: s.BoxMpch, NP: s.NP, MinSize: s.Population.MinSize,
		SampleAbove: s.SplitThreshold, MaxSize: downscaledMaxSize, Seed: seed}
	var pop *core.HaloPopulation
	for i := 0; i < setupRepeats; i++ {
		if err := rec.time("core.SynthesizePopulation", 0, func() error {
			var err error
			pop, err = core.SynthesizePopulation(p, opts)
			return err
		}); err != nil {
			return err
		}
	}
	if !reflect.DeepEqual(pop, s.Population) {
		return fmt.Errorf("SynthesizePopulation with %+v does not rebuild the scenario's population", opts)
	}
	// SynthesizePopulation's binning: its default 16 bins per decade
	// between MinSize and MaxSize particles.
	mp := p.ParticleMass(opts.BoxMpch, opts.NP)
	mMin := float64(opts.MinSize) * mp
	decades := math.Log10(float64(opts.MaxSize) * mp / mMin)
	bins := int(math.Ceil(decades * 16))
	ratio := math.Pow(10, decades/float64(bins))
	var counts []float64
	for i := 0; i < setupRepeats; i++ {
		_ = rec.time("cosmo.ExpectedHaloCounts", 0, func() error {
			counts = p.ExpectedHaloCounts(opts.BoxMpch, mMin, ratio, bins, opts.Z)
			return nil
		})
	}
	for i, b := range pop.Bins {
		if i >= len(counts) || counts[i] != b.Count {
			return fmt.Errorf("ExpectedHaloCounts does not give the population's bin %d", i)
		}
	}
	out["core.synthesize_s"] = median(rec.durations("core.SynthesizePopulation"))
	out["cosmo.expected_counts_s"] = median(rec.durations("cosmo.ExpectedHaloCounts"))
	return nil
}

// engineDrives drives the campaign engine's layers at a campaign's scale:
// n Level 2 files in the namespace and n pending events, as a campaign of n
// steps reaches.
func engineDrives(s *core.Scenario, n int, out map[string]float64) error {
	var sim des.Sim
	storage := fs.New(&sim, "lustre")
	for step := 1; step <= n; step++ {
		storage.Restore(fmt.Sprintf("l2/step%03d.gio", step), 1)
	}
	out["fs.list_us"] = perOp(func() { storage.List("l2/") }) * 1e6

	cluster, err := sched.NewCluster(&sim, s.PostMachine)
	if err != nil {
		return err
	}
	l := &sched.Listener{Sim: &sim, FS: storage, Cluster: cluster, Prefix: "l2/",
		PollInterval: s.ListenerPoll, MakeJob: func(string, *fs.File) *sched.Job { return nil }}
	for step := 1; step <= n; step++ {
		l.MarkSeen(fmt.Sprintf("l2/step%03d.gio", step))
	}
	out["sched.listener_sweep_us"] = perOp(l.FinalSweep) * 1e6

	// The campaign schedules every step's emission when the simulation job
	// starts, so its queue holds about n events; these sit far in the
	// future and keep the depth while each timed event is pushed and run.
	var deep des.Sim
	for i := 0; i < n; i++ {
		deep.At(1e15+float64(i), func() {})
	}
	noop := func() {}
	out["des.event_ns"] = perOp(func() {
		deep.At(deep.Now()+1, noop)
		deep.Step()
	}) * 1e9

	var jobs des.Sim
	post, err := sched.NewCluster(&jobs, s.PostMachine)
	if err != nil {
		return err
	}
	var submitErr error
	out["sched.submit_complete_us"] = perOp(func() {
		if err := post.Submit(&sched.Job{Name: "post", Nodes: s.PostNodes, Duration: 60}); err != nil {
			submitErr = err
		}
		jobs.Run()
	}) * 1e6
	return submitErr
}

// obsDrives times the observer's hot calls on an observer the campaign
// has filled: a metric update by name, and one span.
func obsDrives(o *obs.Observer, out map[string]float64) {
	out["obs.counter_inc_ns"] = perOp(func() { o.Metrics().Counter("core.l2_files_landed").Inc() }) * 1e9
	o.SetClock(func() float64 { return 0 })
	out["obs.span_ns"] = perOp(func() { o.Begin("bench", "span").Done() }) * 1e9
}

// commitDrive times one ckpt.WriteFileAtomic of size bytes in dir.
func commitDrive(dir string, size int, out map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i)
	}
	path := filepath.Join(dir, "product.gio")
	times := make([]float64, 0, 40)
	for i := 0; i < cap(times); i++ {
		t0 := time.Now()
		if err := ckpt.WriteFileAtomic(path, data); err != nil {
			return err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	out["ckpt.commit_us"] = median(times) * 1e6
	return nil
}
