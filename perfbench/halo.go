package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/center"
	"repro/internal/ckpt"
	"repro/internal/cosmo"
	"repro/internal/cosmotools"
	"repro/internal/gio"
	"repro/internal/halo"
	"repro/internal/ic"
	"repro/internal/nbody"
)

// The halo pipeline follows cmd/hacc-sim's in-situ path on a box small
// enough that a run holds dozens of passes: 32³ particles evolved from z=50
// to z=0 in 20 PM steps, with CosmoTools analysis every haloEvery steps,
// which at this horizon is once, at z=0; PM steps keep about three quarters
// of a pass. A 24 Mpc/h box and a 400-particle split put three halos in
// Level 2 at z=0 for every seed tried (the fourth largest stays near 300).
const (
	haloNP        = 32
	haloBox       = 24.0
	haloZInit     = 50.0
	haloSteps     = 20
	haloEvery     = 20
	haloSplit     = 400
	haloSoftening = 1e-3
	// haloPhases is the fixed phase seed of the initial conditions; see
	// place for what the workload seed varies.
	haloPhases = 1
)

// haloDigests pins the merged-center digest of the default seed (1).
var haloDigests = map[int]string{haloSteps: "486df94b6565c8db"}

type haloPipeline struct {
	seed      int64
	params    cosmo.Params
	particles *nbody.Particles
	a0        float64
	dir       string
	n         int
	digests   repeats
	// Facts about the units, for the layer metrics: the CosmoTools timings
	// of every output, and the last unit's counts.
	timings             map[string][]float64
	halos, largest      int
	l2Bytes             int64
	pairs, offlinePairs float64
}

// setupHalo generates the initial conditions and the simulation that will
// evolve them: ic.Generate plus nbody.NewSimulation, as hacc-sim does.
func setupHalo(seed int64, dir string, rec *recorder) (instance, error) {
	h := &haloPipeline{seed: seed, params: cosmo.Default(), dir: dir,
		digests: repeats{}, timings: map[string][]float64{}}
	err := rec.time("ic.Generate", 0, func() error {
		var err error
		h.particles, h.a0, err = ic.Generate(h.params, ic.Options{NP: haloNP, Box: haloBox, ZInit: haloZInit, Seed: haloPhases})
		return err
	})
	if err != nil {
		return nil, err
	}
	place(h.particles, seed)
	_, err = h.newSimulation()
	return h, err
}

// place moves the initial conditions to the seed's point of view: an axis
// permutation and a periodic shift of the whole box, positions and
// velocities alike. Every seed therefore evolves the same cosmic structure
// on a differently aligned mesh, so its inputs differ value for value while
// its halo population stays the same. Drawing new phases per seed instead
// changes the largest halos, and with them the subhalo finder's time and
// allocation up to fourfold, which no run-to-run bound could hold.
func place(p *nbody.Particles, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(3)
	var shift [3]float64
	for i := range shift {
		shift[i] = rng.Float64() * haloBox
	}
	pos := [3][]float64{p.X, p.Y, p.Z}
	vel := [3][]float64{p.VX, p.VY, p.VZ}
	p.X, p.Y, p.Z = pos[perm[0]], pos[perm[1]], pos[perm[2]]
	p.VX, p.VY, p.VZ = vel[perm[0]], vel[perm[1]], vel[perm[2]]
	for i, axis := range [3][]float64{p.X, p.Y, p.Z} {
		for k := range axis {
			axis[k] = math.Mod(axis[k]+shift[i], haloBox)
		}
	}
}

// newSimulation starts a simulation from a copy of the initial conditions.
func (h *haloPipeline) newSimulation() (*nbody.Simulation, error) {
	sim, err := nbody.NewSimulation(h.params, haloBox, haloNP, h.particles.Clone(), h.a0)
	if err != nil {
		return nil, err
	}
	sim.Seed = h.seed
	return sim, nil
}

// horizons has no short horizon: a pass measures its own step-cost growth
// from its PM steps, so the ratio does not mix in the analysis.
func (h *haloPipeline) horizons() (int, int) { return haloSteps, 0 }

// manager registers and configures the CosmoTools algorithms as hacc-sim
// does, with every tool on the analysis cadence and at the final step.
func (h *haloPipeline) manager(final int) (*cosmotools.Manager, error) {
	m := &cosmotools.Manager{Clock: time.Now}
	every := fmt.Sprint(haloEvery)
	last := fmt.Sprint(final)
	hf := cosmotools.NewHaloFinder()
	ps := cosmotools.NewPowerSpectrum()
	som := cosmotools.NewSOMass()
	shf := cosmotools.NewSubhaloFinder()
	for _, set := range []struct {
		alg    cosmotools.Algorithm
		params map[string]string
	}{
		{hf, map[string]string{"every": every, "steps": last, "linking_length": fmt.Sprint(0.2 * haloBox / haloNP),
			"min_size": "10", "split_threshold": fmt.Sprint(haloSplit)}},
		{ps, map[string]string{"every": every, "steps": last, "grid": fmt.Sprint(haloNP), "bins": "16"}},
		{som, map[string]string{"every": every, "steps": last, "rho_ref": fmt.Sprint(h.params.MeanMatterDensity())}},
		{shf, map[string]string{"every": every, "steps": last, "min_halo_size": "400"}},
	} {
		if err := set.alg.SetParameters(set.params); err != nil {
			return nil, err
		}
		if err := m.Register(set.alg); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// output is what one analysis step produced in memory.
type output struct {
	step    int
	ctx     *cosmotools.Context
	l2      *cosmotools.Level2
	l2Path  string
	merged  []cosmotools.CenterRecord
	readL2  *cosmotools.Level2
	offline []cosmotools.CenterRecord
}

func (h *haloPipeline) prepare(steps int) (*unit, error) {
	sim, err := h.newSimulation()
	if err != nil {
		return nil, err
	}
	h.n++
	dir := filepath.Join(h.dir, fmt.Sprintf("run-%d", h.n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	mass := h.params.ParticleMass(haloBox, haloNP)
	var outs []*output
	var pm []float64 // wall seconds of each PM step
	return &unit{
		run: func(rec *recorder, parent int) error {
			m, err := h.manager(steps)
			if err != nil {
				return err
			}
			last := time.Now()
			cb := func(step int) error {
				now := time.Now()
				pm = append(pm, now.Sub(last).Seconds())
				rec.add("nbody.step", parent, last, now)
				defer func() { last = time.Now() }()
				if step%haloEvery != 0 && step != steps {
					return nil
				}
				o := &output{step: step, ctx: cosmotools.NewContext(step, sim.A, haloBox, mass, sim.P)}
				outs = append(outs, o)
				if err := rec.time("cosmotools.Execute", parent, func() error { return m.Execute(o.ctx) }); err != nil {
					return err
				}
				return h.writeProducts(dir, o, rec, parent)
			}
			if err := sim.Run(1, steps, cb); err != nil {
				return err
			}
			// The off-line half: read each Level 2 file back, find the
			// large halos' centers, and merge them with the in-situ ones.
			for _, o := range outs {
				if err := h.offline(o, mass, rec, parent); err != nil {
					return err
				}
			}
			return nil
		},
		check: func() error { return h.check(steps, outs) },
		// The median PM step of the second half of the run over that of the
		// first half.
		growth: func() float64 {
			half := len(pm) / 2
			return median(pm[half:]) / median(pm[:half])
		},
	}, nil
}

// writeProducts lands one step's Level 2 particles through gio, one block
// per large halo (the layout cmd/cosmotools -mode centers reads), and its
// in-situ centers through an atomic commit.
func (h *haloPipeline) writeProducts(dir string, o *output, rec *recorder, parent int) error {
	o.l2 = o.ctx.Outputs["halofinder/level2"].(*cosmotools.Level2)
	if len(o.l2.Spans) > 0 {
		blocks := make([]gio.Block, len(o.l2.Spans))
		for i, sp := range o.l2.Spans {
			idx := make([]int, sp.End-sp.Start)
			for k := range idx {
				idx[k] = sp.Start + k
			}
			blocks[i] = gio.Block{Rank: i, Particles: o.l2.Particles.Select(idx)}
		}
		o.l2Path = filepath.Join(dir, fmt.Sprintf("step%03d.l2.gio", o.step))
		if err := rec.time("gio.WriteFile", parent, func() error { return gio.WriteFile(o.l2Path, blocks) }); err != nil {
			return err
		}
	}
	var buf bytes.Buffer
	if err := catalog.Write(&buf, o.ctx.Outputs["halofinder/centers"].([]cosmotools.CenterRecord)); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("step%03d.centers", o.step))
	return rec.time("ckpt.WriteFileAtomic", parent, func() error { return ckpt.WriteFileAtomic(path, buf.Bytes()) })
}

// offline reads one step's Level 2 back, rebuilds its spans (one block per
// halo, tagged by its smallest particle tag), runs the off-line centers and
// merges them with the step's in-situ centers.
func (h *haloPipeline) offline(o *output, mass float64, rec *recorder, parent int) error {
	inSitu := o.ctx.Outputs["halofinder/centers"].([]cosmotools.CenterRecord)
	if o.l2Path != "" {
		var blocks []gio.Block
		if err := rec.time("gio.ReadFile", parent, func() error {
			var err error
			blocks, err = gio.ReadFile(o.l2Path)
			return err
		}); err != nil {
			return err
		}
		l2 := &cosmotools.Level2{Particles: nbody.NewParticles(0)}
		for _, b := range blocks {
			start := l2.Particles.N()
			tag := int64(math.MaxInt64)
			for i := 0; i < b.Particles.N(); i++ {
				l2.Particles.AppendFrom(b.Particles, i)
				tag = min(tag, b.Particles.Tag[i])
			}
			l2.Spans = append(l2.Spans, cosmotools.Level2Span{Tag: tag, Start: start, End: l2.Particles.N()})
		}
		o.readL2 = l2
		if err := rec.time("cosmotools.CentersForLevel2", parent, func() error {
			var err error
			o.offline, err = cosmotools.CentersForLevel2(l2, haloBox, center.Options{Mass: mass, Softening: haloSoftening})
			return err
		}); err != nil {
			return err
		}
	}
	return rec.time("cosmotools.MergeCenters", parent, func() error {
		var err error
		o.merged, err = cosmotools.MergeCenters(inSitu, o.offline)
		return err
	})
}

// check requires the Level 2 read back to equal what was written, and the
// merged centers to match the first unit's (and, for the default seed, the
// pinned digest).
func (h *haloPipeline) check(steps int, outs []*output) error {
	var merged strings.Builder
	var halos, largest int
	var pairs, offlinePairs float64
	var l2Bytes int64
	timings := map[string][]float64{}
	for _, o := range outs {
		if err := sameLevel2(o.l2, o.readL2); err != nil {
			return fmt.Errorf("step %d: %w", o.step, err)
		}
		for _, c := range o.merged {
			fmt.Fprintf(&merged, "%d %d %d %d\n", o.step, c.HaloTag, c.MBPTag, c.Count)
			pairs += float64(c.Count) * float64(c.Count)
		}
		for _, c := range o.offline {
			offlinePairs += float64(c.Count) * float64(c.Count)
		}
		cat := o.ctx.Outputs["halofinder/catalog"].(*halo.Catalog)
		halos, largest = len(cat.Halos), cat.LargestCount()
		for name, t := range o.ctx.Timings {
			timings[name] = append(timings[name], t.Seconds())
		}
		if o.l2Path != "" {
			info, err := os.Stat(o.l2Path)
			if err != nil {
				return err
			}
			l2Bytes += info.Size()
		}
	}
	if err := h.digests.check("merged-center digest", haloDigests, h.seed, steps, digest(merged.String())); err != nil {
		return err
	}
	h.halos, h.largest, h.pairs, h.offlinePairs, h.l2Bytes = halos, largest, pairs, offlinePairs, l2Bytes
	for name, ts := range timings {
		h.timings[name] = append(h.timings[name], ts...)
	}
	return nil
}

// sameLevel2 compares a Level 2 product with its read-back copy: the same
// spans and, record by record, the written values at gio's float32
// precision.
func sameLevel2(want, got *cosmotools.Level2) error {
	if len(want.Spans) == 0 {
		if got != nil {
			return fmt.Errorf("read back a Level 2 that was never written")
		}
		return nil
	}
	if got == nil || len(got.Spans) != len(want.Spans) {
		return fmt.Errorf("Level 2 read back with a different halo count")
	}
	for i, sp := range want.Spans {
		if g := got.Spans[i]; g.Tag != sp.Tag || g.End-g.Start != sp.End-sp.Start {
			return fmt.Errorf("Level 2 halo %d read back as %+v, wrote %+v", i, g, sp)
		}
	}
	w, g := want.Particles, got.Particles
	if w.N() != g.N() {
		return fmt.Errorf("Level 2 read back %d particles, wrote %d", g.N(), w.N())
	}
	f32 := func(x float64) float64 { return float64(float32(x)) }
	for i := 0; i < w.N(); i++ {
		if w.Tag[i] != g.Tag[i] || f32(w.X[i]) != g.X[i] || f32(w.Y[i]) != g.Y[i] || f32(w.Z[i]) != g.Z[i] ||
			f32(w.VX[i]) != g.VX[i] || f32(w.VY[i]) != g.VY[i] || f32(w.VZ[i]) != g.VZ[i] {
			return fmt.Errorf("Level 2 particle %d read back differently", i)
		}
	}
	return nil
}

func (h *haloPipeline) layers(rec *recorder, _ func(error)) (map[string]float64, error) {
	out := map[string]float64{
		"ic.generate_s":                median(rec.durations("ic.Generate")),
		"nbody.step_s":                 median(rec.durations("nbody.step")),
		"cosmotools.halofinder_s":      median(h.timings["halofinder"]),
		"cosmotools.powerspectrum_s":   median(h.timings["powerspectrum"]),
		"cosmotools.somass_s":          median(h.timings["somass"]),
		"cosmotools.subhalofinder_s":   median(h.timings["subhalofinder"]),
		"halo.halos":                   float64(h.halos),
		"halo.largest":                 float64(h.largest),
		"gio.l2_write_s":               median(rec.durations("gio.WriteFile")),
		"gio.l2_read_s":                median(rec.durations("gio.ReadFile")),
		"gio.l2_bytes":                 float64(h.l2Bytes),
		"cosmotools.offline_centers_s": median(rec.durations("cosmotools.CentersForLevel2")),
		"center.pairs":                 h.pairs,
	}
	// Every traced unit ran the same off-line pass over offlinePairs pairs.
	if units := len(rec.durations("unit")); units > 0 && h.offlinePairs > 0 {
		out["center.ns_per_pair"] = sum(rec.durations("cosmotools.CentersForLevel2")) /
			float64(units) / h.offlinePairs * 1e9
	}
	return out, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
