// Command perfbench is the repository benchmark. It runs one named
// workload (or all of them) against the program's public packages, checks
// every output, and prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced.
// With -trace 1 they are the per-layer ones, taken from a separate run that
// records spans around the benchmark's calls into each layer and profiles
// the CPU. See README.md for the workloads and the metric map.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// unit is one prepared timed unit of a workload, completing as many
// simulation steps as its horizon: run is what the timer covers, check
// verifies its outputs afterwards (untimed). A workload that times its
// steps one by one sets growth, the unit's own late-step cost over its
// early-step cost.
type unit struct {
	run    func(rec *recorder, parent int) error
	check  func() error
	growth func() float64
}

// instance is a workload after set-up.
type instance interface {
	// prepare builds one timed unit at the given horizon (untimed).
	prepare(horizon int) (*unit, error)
	// horizons gives the full horizon and the short one step_cost_growth
	// compares it with; a short horizon of 0 means the full units measure
	// their own growth.
	horizons() (full, short int)
	// layers runs the workload's layer drives and returns per-layer
	// metrics from the traced units' spans and reports (traced run only).
	// Outputs a drive checks are passed to count.
	layers(rec *recorder, count func(error)) (map[string]float64, error)
}

// workload names one benchmark workload.
type workload struct {
	name string
	// setup builds the inputs from the seed; its wall time is setup_s.
	setup func(seed int64, dir string, rec *recorder) (instance, error)
}

var workloads = []workload{
	{"campaign-coschedule", setupCoschedule},
	{"campaign-resilient", setupResilient},
	{"halo-pipeline", setupHalo},
}

// Set-up runs at least setupRepeats times and until setupBudget has been
// spent (at most setupMax times); setup_s is the median.
const (
	setupRepeats = 3
	setupBudget  = 2 * time.Second
	setupMax     = 50
)

// growthShare is the share of the measuring time spent on the short-horizon
// units that step_cost_growth compares against.
const growthShare = 0.2

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 30, "measuring time per workload")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		outDir  = flag.String("out", filepath.Join(".bench_build", "perfbench-out"), "directory for work files, spans and profiles")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("-trace must be 0 or 1")
	}
	var chosen []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fatalf("unknown workload %q", *name)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range chosen {
		res, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *outDir)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		printTable(w.name, res)
		if len(chosen) == 1 {
			all = res
			break
		}
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, m := range res.Metrics {
			all.Metrics[w.name+"/"+k] = m
		}
	}
	for k, m := range all.Metrics {
		// A workload whose every unit failed has no samples to report.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			all.Metrics[k] = metric{Unit: m.Unit}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
	if !all.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runWorkload sets the workload up, measures it for d, and returns its
// result. A failed output check counts against the result; an error from
// set-up or the harness itself aborts the run.
func runWorkload(w workload, seed int64, d time.Duration, traced bool, outDir string) (result, error) {
	dir, err := filepath.Abs(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-%d", w.name, seed, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	// Units keep their files until the workload ends: on a filesystem
	// mounted with online discard, deleting files makes later fsyncs wait
	// for the freed blocks, so deleting between units would slow the next
	// unit by an amount the disk decides. The final sync lets that work
	// finish before the next run starts.
	defer func() {
		os.RemoveAll(dir)
		syscall.Sync()
	}()

	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	var inst instance
	var setup []float64
	for spent := 0.0; len(setup) < setupRepeats || (spent < setupBudget.Seconds() && len(setup) < setupMax); {
		runtime.GC()
		t0 := time.Now()
		inst, err = w.setup(seed, dir, rec)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		spent += setup[len(setup)-1]
	}

	full, short := inst.horizons()
	m := &measurer{inst: inst, full: full}
	// One warm-up unit at each horizon lets lazy set-up finish before the
	// clock starts; its checks count like any other unit's.
	for _, h := range []int{full, short} {
		if h == 0 {
			continue
		}
		if err := m.one(h, nil, false); err != nil {
			return result{}, err
		}
	}
	if !traced {
		if err := m.loop(full, short, d); err != nil {
			return result{}, err
		}
		return m.endToEnd(median(setup)), nil
	}

	// Traced run: units with spans and pprof labels alternate with units
	// without, under one CPU profile, so trace_overhead compares units that
	// saw the same machine state. Only the traced units' samples are
	// attributed.
	prof, err := startProfile()
	if err != nil {
		return result{}, err
	}
	var loopErr error
	for deadline, n := time.Now().Add(d), 0; loopErr == nil && (n == 0 || time.Now().Before(deadline)); n++ {
		loopErr = errors.Join(m.one(full, nil, true), m.one(full, rec, true))
	}
	shares, profErr := prof.stop(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.pprof", w.name, seed)))
	if err := errors.Join(loopErr, profErr); err != nil {
		return result{}, err
	}
	layers, err := inst.layers(rec, m.count)
	if err != nil {
		return result{}, fmt.Errorf("layer drives: %w", err)
	}
	for k, v := range shares {
		layers[k] = v
	}
	layers["bench.trace_overhead"] = median(m.traced)/median(m.runs) - 1
	// A campaign's internals are split by the CPU profile alone, so of a
	// core.Campaign span only the samples charged to a module below core
	// count as attributed.
	layers["bench.unattributed_share"] = rec.unattributed("unit", map[string]float64{
		"core.Campaign": shares["core.cpu_share"] + shares["other.cpu_share"],
	})
	if err := rec.write(filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.json", w.name, seed))); err != nil {
		return result{}, err
	}
	res := m.result()
	for _, pm := range perLayer {
		res.Metrics[pm.name] = metric{Value: layers[pm.name], Unit: pm.unit}
	}
	return res, nil
}

// measurer runs timed units and keeps their samples.
type measurer struct {
	inst      instance
	full      int
	attempted int
	failed    int
	// runs, allocs and growths are per untraced full-horizon unit, traced
	// per traced one, shorts per short-horizon unit (seconds per step);
	// steps and busy total the untraced full-horizon units.
	runs, allocs, growths, traced, shorts []float64
	steps                                 int
	busy                                  float64
}

// count records one checked output; a failed check is counted, not fatal.
func (m *measurer) count(err error) {
	m.attempted++
	if err != nil {
		m.failed++
		fmt.Fprintf(os.Stderr, "perfbench: output check failed: %v\n", err)
	}
}

// one prepares, times and checks a single unit, keeping its samples when
// keep is set and the check passed.
func (m *measurer) one(h int, rec *recorder, keep bool) error {
	u, err := m.inst.prepare(h)
	if err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	// Each unit starts from a collected heap, so it pays for the garbage
	// it makes and not for the previous unit's.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var elapsed time.Duration
	var runErr error
	labelled(rec != nil, func() {
		parent := rec.begin("unit", 0)
		t0 := time.Now()
		runErr = u.run(rec, parent)
		elapsed = time.Since(t0)
		rec.end(parent)
	})
	runtime.ReadMemStats(&after)
	if runErr == nil {
		runErr = u.check()
	}
	m.count(runErr)
	switch {
	case runErr != nil || !keep:
	case rec != nil:
		m.traced = append(m.traced, elapsed.Seconds())
	case h != m.full:
		m.shorts = append(m.shorts, elapsed.Seconds()/float64(h))
	default:
		if u.growth != nil {
			m.growths = append(m.growths, u.growth())
		}
		m.runs = append(m.runs, elapsed.Seconds())
		m.allocs = append(m.allocs, float64(after.TotalAlloc-before.TotalAlloc))
		m.steps += h
		m.busy += elapsed.Seconds()
	}
	return nil
}

// loop runs full-horizon units for d. When short is positive,
// short-horizon units run between them and take growthShare of the time:
// interleaved, both horizons see the same machine state, so their ratio
// (step_cost_growth) does not follow the host's speed drift.
func (m *measurer) loop(full, short int, d time.Duration) error {
	deadline := time.Now().Add(d)
	var fullTime, shortTime time.Duration
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		if err := m.one(full, nil, true); err != nil {
			return err
		}
		fullTime += time.Since(t0)
		for short > 0 && float64(shortTime) < float64(fullTime)*growthShare/(1-growthShare) {
			t0 := time.Now()
			if err := m.one(short, nil, true); err != nil {
				return err
			}
			shortTime += time.Since(t0)
		}
	}
	return nil
}

func (m *measurer) result() result {
	return result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metric{},
	}
}

// endToEnd turns the untraced samples into the end-to-end metrics.
func (m *measurer) endToEnd(setup float64) result {
	res := m.result()
	run := median(m.runs)
	tail, pct := tailPercentile(m.runs)
	growth := median(m.growths)
	if len(m.growths) == 0 {
		growth = run / float64(m.full) / median(m.shorts)
	}
	vals := map[string]float64{
		"setup_s":          setup,
		"run_s":            run,
		"steps_per_s":      float64(m.steps) / m.busy,
		"alloc_mb":         median(m.allocs) / 1e6,
		"step_cost_growth": growth,
	}
	for _, e := range endToEnd {
		res.Metrics[e.name] = metric{Value: vals[e.name], Unit: e.unit}
	}
	// The tail is printed, not declared: see README.md, "Steadiness".
	fmt.Printf("  run_s_tail %.6g s (p%g of %d units); step_cost_growth from %d full-horizon and %d short-horizon units\n",
		tail, pct, len(m.runs), len(m.runs), len(m.shorts))
	fmt.Printf("  failed_frac %.4f (%d of %d units)\n", float64(m.failed)/float64(m.attempted), m.failed, m.attempted)
	return res
}

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"steps_per_s", "1/s"},
	{"alloc_mb", "MB"},
	{"step_cost_growth", "ratio"},
}

// repeats is one workload's record of what its units produced, per
// horizon, for the repeatability checks.
type repeats map[int]string

// check requires got, a digest of a unit's outputs at horizon h, to equal
// the first unit's at that horizon and, for the default seed (1), the
// pinned value when there is one.
func (r repeats) check(what string, pinned map[int]string, seed int64, h int, got string) error {
	if want := pinned[h]; seed == 1 && want != "" && got != want {
		return fmt.Errorf("%s %s at %d steps, pinned %s", what, got, h, want)
	}
	if first, ok := r[h]; ok && got != first {
		return fmt.Errorf("%s %s at %d steps differs from the first run's %s", what, got, h, first)
	}
	r[h] = got
	return nil
}

// digest hashes a rendering of outputs to 16 hex digits.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

func printTable(name string, res result) {
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, k := range keys {
		fmt.Printf("  %-34s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest percentile on a fixed ladder that
// leaves at least ten samples above it, and that percentile; with fewer
// than twenty samples it falls back to the median.
func tailPercentile(xs []float64) (float64, float64) {
	best := 50.0
	for _, p := range []float64{75, 90, 95, 99, 99.9} {
		if float64(len(xs))*(1-p/100) >= 10 {
			best = p
		}
	}
	return quantile(xs, best/100), best
}
