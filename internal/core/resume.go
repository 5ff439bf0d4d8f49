package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/catalog"
	"repro/internal/ckpt"
	"repro/internal/cosmotools"
	"repro/internal/des"
	"repro/internal/fs"
	"repro/internal/gio"
	"repro/internal/integrity"
	"repro/internal/nbody"
)

// ErrCampaignCrashed reports that a ResumableCampaign run was killed by an
// injected process crash (fault.Crash). The journal under the campaign
// directory holds every product committed before the kill; calling
// ResumableCampaign again on the same directory resumes from it.
var ErrCampaignCrashed = errors.New("core: campaign crashed mid-run (run again to resume)")

// ResumeStats accounts one incarnation's checkpoint/restart activity. All
// fields are zero on a fresh run, keeping the report DeepEqual-comparable
// to a plain Campaign.
type ResumeStats struct {
	// Generation is how many prior incarnations the journal recorded (0 on
	// a fresh run).
	Generation int
	// StepsSkipped and PostsSkipped count journaled work units this
	// incarnation did not redo.
	StepsSkipped, PostsSkipped int
	// TornFiles counts on-disk files found without a journal record — the
	// signature of a crash between write and commit; they are removed and
	// their work redone. SalvagedBlocks counts intact gio blocks recovered
	// from torn Level 2 files before removal (diagnostics only; the redo
	// regenerates them bit-identically).
	TornFiles, SalvagedBlocks int
}

// campaignCrash is the panic payload that unwinds the discrete-event stack
// when an injected crash (or a persistence failure) strikes inside an
// engine callback. err == nil means the injected kill.
type campaignCrash struct{ err error }

const (
	journalFile = "journal.wal"
	ledgerFile  = "lineage.wal"
)

// campaign product layout under the output directory.
func l2RelPath(step int) string      { return "l2/" + fmt.Sprintf("step%03d.gio", step) }
func centersRelPath(step int) string { return "centers/" + fmt.Sprintf("step%03d.centers", step) }

// ResumableCampaign runs Campaign with crash-consistent persistence: every
// delivered product (per-step Level 2 particle files, per-step center
// catalogs, the final merged catalog) is committed atomically under outDir
// and journaled in outDir/journal.wal. If the process dies — for real, or
// through a fault.Crash in the scenario's profile — re-running with the
// same arguments replays the journal, reconciles the directory (stale
// temps removed, torn unjournaled files salvage-counted and redone,
// journaled files verified by size and CRC32), restores surviving files
// into the modelled storage, requeues analyses that never completed, and
// continues from the first unfinished step.
//
// Product content is a pure function of (seed, step), so a campaign that
// crashed and resumed any number of times converges to byte-identical
// products vs an uninterrupted run. seed is recorded in the journal's meta
// record alongside the scenario name, horizon and fault seed; resuming
// under different parameters is refused.
func ResumableCampaign(s *Scenario, timesteps int, outDir string, seed int64) (rep *CampaignReport, err error) {
	if timesteps <= 0 {
		return nil, fmt.Errorf("core: campaign needs timesteps > 0")
	}
	for _, d := range []string{outDir, filepath.Join(outDir, "l2"), filepath.Join(outDir, "centers")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	j, records, err := ckpt.Open(filepath.Join(outDir, journalFile))
	if err != nil {
		return nil, err
	}
	defer func() {
		// A close failure after fsync'd appends cannot lose records, but a
		// silently dropped error would mask a sick filesystem mid-campaign.
		if cerr := j.Close(); cerr != nil && err == nil {
			rep, err = nil, cerr
		}
	}()
	m := ckpt.Replay(records)
	var faultSeed int64
	if s.Faults != nil {
		faultSeed = s.Faults.Seed
	}
	if err := m.CheckMeta(s.Name, timesteps, seed, faultSeed); err != nil {
		return nil, err
	}
	if m.Meta == nil {
		if err := j.Append(ckpt.Record{Kind: ckpt.KindMeta, Name: s.Name,
			Timesteps: timesteps, Seed: seed, FaultSeed: faultSeed}); err != nil {
			return nil, err
		}
	}
	// The integrity layer: a content-addressed lineage ledger beside the
	// journal, plus a scrubber that repairs checksum mismatches by
	// re-running only the producing step. Active when the profile injects
	// bit rot or the scenario co-schedules scrubbing.
	rotOn := s.Faults != nil && s.Faults.BitRotProb > 0
	integrityOn := rotOn || s.Scrub != nil
	var led *integrity.Ledger
	var scr *integrity.Scrubber
	if integrityOn {
		led, err = integrity.OpenLedger(filepath.Join(outDir, ledgerFile))
		if err != nil {
			return nil, err
		}
		defer func() {
			if cerr := led.Close(); cerr != nil && err == nil {
				rep, err = nil, cerr
			}
		}()
		if err := backfillLedger(led, m, seed); err != nil {
			return nil, err
		}
		scr = &integrity.Scrubber{Dir: outDir, Ledger: led,
			Rederive: func(p integrity.Product) ([]byte, error) { return rederiveProduct(outDir, seed, p) }}
	}

	stats := ResumeStats{Generation: m.Generation}
	if err := reconcileDir(outDir, m, &stats, scr); err != nil {
		return nil, err
	}

	done := m.CompletedSteps()
	if done > timesteps {
		done = timesteps
	}
	hooks := campaignHooks{startStep: done + 1}
	for step := 1; step <= done; step++ {
		hooks.preloadSteps = append(hooks.preloadSteps, step)
		if _, ok := m.Posts[step]; ok {
			hooks.preSeenSteps = append(hooks.preSeenSteps, step)
		}
	}
	stats.StepsSkipped = done
	stats.PostsSkipped = len(hooks.preSeenSteps)

	// This incarnation's injected kill, drawn positionally by generation,
	// then the incarnation itself goes on record.
	crash, crashArmed := s.injector().CrashFor(m.Generation)
	if err := j.Append(ckpt.Record{Kind: ckpt.KindRun, Name: fmt.Sprintf("gen-%d", m.Generation)}); err != nil {
		return nil, err
	}
	if crashArmed && crash.AtTime > 0 {
		hooks.runUntil = crash.AtTime
	}

	// Integrity wiring into the engine: the clock timestamps scrub
	// decisions, bit-rot events fire on the virtual timeline against the
	// real product files, and every commit gains a lineage record.
	var engineSim *des.Sim
	var engineFS *fs.System
	scheduleRot := func(rel string) {
		if !rotOn || engineSim == nil {
			return
		}
		delay, frac, rot := s.injector().BitRot(rel, m.Generation)
		if !rot {
			return
		}
		engineSim.After(delay, func() {
			if integrity.CorruptFile(filepath.Join(outDir, rel), frac) == nil {
				engineFS.Corrupt(rel)
			}
		})
	}
	hooks.onSetup = func(sim *des.Sim, storage *fs.System) {
		engineSim, engineFS = sim, storage
		if scr != nil {
			scr.Now = sim.Now
			scr.Obs = s.Obs
		}
		// Products surviving from earlier incarnations rot too: each
		// generation draws fresh, (path, generation)-keyed rot for them.
		for _, p := range led.Products() {
			scheduleRot(p.Path)
		}
	}
	if !integrityOn {
		hooks.onSetup = nil
	}
	commitLineage := func(p integrity.Product) {
		if led == nil {
			return
		}
		p.Params = fmt.Sprintf("seed=%d", seed)
		if e := led.Append(p); e != nil {
			panic(campaignCrash{err: e})
		}
		scheduleRot(p.Path)
	}
	if s.Scrub != nil {
		hooks.scrub = &scrubDriver{scr: scr, pol: s.Scrub.withDefaults()}
	}

	hooks.onStepLanded = func(step int) {
		data := l2Product(seed, step)
		if crashArmed && crash.AtStep == step {
			// The kill strikes mid-write: a torn prefix lands non-atomically
			// and no journal record is written — the worst case the
			// reconcile pass must clean up.
			//lint:allow atomicwrite deliberate torn write: fault injection exercising the reconcile path
			_ = os.WriteFile(filepath.Join(outDir, l2RelPath(step)), data[:len(data)*3/5], 0o644)
			panic(campaignCrash{})
		}
		if _, e := j.Commit(ckpt.Record{Kind: ckpt.KindStep, Step: step, Path: l2RelPath(step)}, outDir, data); e != nil {
			panic(campaignCrash{err: e})
		}
		commitLineage(integrity.Product{Path: l2RelPath(step), Bytes: int64(len(data)),
			Sum: integrity.Sum(data), Step: step, Producer: "sim-step"})
	}
	hooks.onPostDone = func(step int) {
		data := centersProduct(seed, step)
		if _, e := j.Commit(ckpt.Record{Kind: ckpt.KindPost, Step: step, Path: centersRelPath(step)}, outDir, data); e != nil {
			panic(campaignCrash{err: e})
		}
		commitLineage(integrity.Product{Path: centersRelPath(step), Bytes: int64(len(data)),
			Sum: integrity.Sum(data), Step: step, Producer: "post-step",
			Inputs: []string{l2RelPath(step)}})
	}
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(campaignCrash)
			if !ok {
				panic(r)
			}
			rep, err = nil, ErrCampaignCrashed
			if c.err != nil {
				err = c.err
			}
		}
	}()
	rep, crashed, err := runCampaign(s, CombinedCoScheduled, "sim", timesteps, hooks)
	if err != nil {
		return nil, err
	}
	if crashed {
		return nil, ErrCampaignCrashed
	}

	// Every analysis landed: commit the merged catalog ("the two files ...
	// were merged to provide a complete set of halo centers", §4.1). The
	// merge inputs may have rotted since their commit, so under the
	// integrity layer each one is verified (and repaired) first — a merge
	// must never bake corruption into the Level 3 product.
	centerInputs := make([]string, 0, timesteps)
	for step := 1; step <= timesteps; step++ {
		centerInputs = append(centerInputs, centersRelPath(step))
	}
	if m.Merge == nil {
		if scr != nil {
			for _, rel := range centerInputs {
				if p, ok := led.Lookup(rel); ok {
					scr.CheckRepair(p)
				}
			}
		}
		paths := make([]string, 0, timesteps)
		for _, rel := range centerInputs {
			paths = append(paths, filepath.Join(outDir, rel))
		}
		merged, err := catalog.MergeFiles(paths)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := catalog.Write(&buf, merged); err != nil {
			return nil, err
		}
		if _, err := j.Commit(ckpt.Record{Kind: ckpt.KindMerge, Path: "catalog.txt"}, outDir, buf.Bytes()); err != nil {
			return nil, err
		}
		if led != nil {
			data := buf.Bytes()
			if err := led.Append(integrity.Product{Path: "catalog.txt", Bytes: int64(len(data)),
				Sum: integrity.Sum(data), Producer: "merge", Inputs: centerInputs,
				Params: fmt.Sprintf("seed=%d", seed)}); err != nil {
				return nil, err
			}
			// At-rest rot can strike the merged catalog too; the virtual
			// clock has stopped, so an armed rot fires immediately and the
			// final sweep below repairs it.
			if rotOn {
				if _, frac, rot := s.injector().BitRot("catalog.txt", m.Generation); rot {
					_ = integrity.CorruptFile(filepath.Join(outDir, "catalog.txt"), frac)
				}
			}
		}
	}
	if scr != nil {
		// Final full pass in commit order: whatever rot landed after the
		// last co-scheduled scrub window is caught and repaired here, so a
		// finished campaign always converges to a clean, fault-free-
		// identical product set.
		scr.SweepAll()
		rep.Integrity = scr.Stats
		rep.ScrubDecisions = scr.Decisions()
	}
	rep.Resume = stats
	return rep, nil
}

// rederiveProduct regenerates one product from its lineage record — the
// minimal-repair primitive. Per-step products come straight from the
// (seed, step) generators; the merged catalog re-runs only the merge over
// its (already verified) inputs.
func rederiveProduct(outDir string, seed int64, p integrity.Product) ([]byte, error) {
	switch p.Producer {
	case "sim-step":
		return l2Product(seed, p.Step), nil
	case "post-step":
		return centersProduct(seed, p.Step), nil
	case "merge":
		paths := make([]string, len(p.Inputs))
		for i, in := range p.Inputs {
			paths[i] = filepath.Join(outDir, in)
		}
		merged, err := catalog.MergeFiles(paths)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := catalog.Write(&buf, merged); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	return nil, fmt.Errorf("core: no re-derivation for producer %q (%s)", p.Producer, p.Path)
}

// backfillLedger gives journaled products from pre-ledger incarnations a
// lineage record. The expected content is regenerated from (seed, step) —
// never read back from disk, which may have rotted in the meantime — so a
// backfilled record carries the true fault-free content address. Records
// land in deterministic order: steps, then posts, then the merge.
func backfillLedger(led *integrity.Ledger, m *ckpt.Manifest, seed int64) error {
	steps := make([]int, 0, len(m.Steps))
	for step := range m.Steps {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	for _, step := range steps {
		r := m.Steps[step]
		if _, ok := led.Lookup(r.Path); ok {
			continue
		}
		data := l2Product(seed, step)
		if err := led.Append(integrity.Product{Path: r.Path, Bytes: int64(len(data)),
			Sum: integrity.Sum(data), Step: step, Producer: "sim-step",
			Params: fmt.Sprintf("seed=%d", seed)}); err != nil {
			return err
		}
	}
	posts := make([]int, 0, len(m.Posts))
	for step := range m.Posts {
		posts = append(posts, step)
	}
	sort.Ints(posts)
	for _, step := range posts {
		r := m.Posts[step]
		if _, ok := led.Lookup(r.Path); ok {
			continue
		}
		data := centersProduct(seed, step)
		if err := led.Append(integrity.Product{Path: r.Path, Bytes: int64(len(data)),
			Sum: integrity.Sum(data), Step: step, Producer: "post-step",
			Inputs: []string{l2RelPath(step)},
			Params: fmt.Sprintf("seed=%d", seed)}); err != nil {
			return err
		}
	}
	if m.Merge != nil && m.Meta != nil {
		if _, ok := led.Lookup(m.Merge.Path); !ok {
			data := mergedProduct(seed, m.Meta.Timesteps)
			inputs := make([]string, 0, m.Meta.Timesteps)
			for step := 1; step <= m.Meta.Timesteps; step++ {
				inputs = append(inputs, centersRelPath(step))
			}
			if err := led.Append(integrity.Product{Path: m.Merge.Path, Bytes: int64(len(data)),
				Sum: integrity.Sum(data), Producer: "merge", Inputs: inputs,
				Params: fmt.Sprintf("seed=%d", seed)}); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergedProduct computes the merged catalog purely from (seed, timesteps)
// — the in-memory equivalent of catalog.MergeFiles over pristine per-step
// center products, used to backfill the merge's lineage record without
// trusting possibly-rotted disk bytes.
func mergedProduct(seed int64, timesteps int) []byte {
	byTag := map[int64]cosmotools.CenterRecord{}
	for step := 1; step <= timesteps; step++ {
		recs, err := catalog.Read(bytes.NewReader(centersProduct(seed, step)))
		if err != nil {
			panic(err) // in-memory parse of our own generator output cannot fail
		}
		for _, r := range recs {
			byTag[r.HaloTag] = r
		}
	}
	tags := make([]int64, 0, len(byTag))
	for tag := range byTag {
		tags = append(tags, tag)
	}
	sort.Slice(tags, func(a, b int) bool { return tags[a] < tags[b] })
	recs := make([]cosmotools.CenterRecord, 0, len(tags))
	for _, tag := range tags {
		recs = append(recs, byTag[tag])
	}
	var buf bytes.Buffer
	if err := catalog.Write(&buf, recs); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}

// reconcileDir brings the campaign directory back in line with the journal
// after a crash: stale commit temps (and quarantine leftovers) are
// deleted, files without a journal record (a crash struck between write
// and commit) are salvage-counted and removed so their work is redone,
// and journaled files are verified against their recorded size and
// checksum — in deterministic order (steps, posts, merge). A checksum
// mismatch is silent corruption, not a crash artifact: with a scrubber
// attached the file is quarantined and repaired from its lineage; without
// one it is a hard error.
func reconcileDir(outDir string, m *ckpt.Manifest, stats *ResumeStats, scr *integrity.Scrubber) error {
	journaled := map[string]ckpt.Record{}
	for _, r := range m.Steps {
		journaled[r.Path] = r
	}
	for _, r := range m.Posts {
		journaled[r.Path] = r
	}
	if m.Merge != nil {
		journaled[m.Merge.Path] = *m.Merge
	}
	for _, sub := range []string{"", "l2", "centers"} {
		ckpt.RemoveStaleTemps(filepath.Join(outDir, sub))
	}
	for _, sub := range []string{"l2", "centers"} {
		entries, err := os.ReadDir(filepath.Join(outDir, sub))
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if _, ok := journaled[sub+"/"+e.Name()]; ok {
				continue
			}
			stats.TornFiles++
			full := filepath.Join(outDir, sub, e.Name())
			if filepath.Ext(e.Name()) == ".gio" {
				if blocks, _ := gio.ReadSalvageFile(full); blocks != nil {
					stats.SalvagedBlocks += len(blocks)
				}
			}
			if err := os.Remove(full); err != nil {
				return err
			}
		}
	}
	if _, ok := journaled["catalog.txt"]; !ok {
		if _, err := os.Stat(filepath.Join(outDir, "catalog.txt")); err == nil {
			stats.TornFiles++
			if err := os.Remove(filepath.Join(outDir, "catalog.txt")); err != nil {
				return err
			}
		}
	}
	for _, r := range orderedRecords(m) {
		err := ckpt.VerifyFile(outDir, r)
		if err == nil {
			continue
		}
		if scr != nil && errors.Is(err, ckpt.ErrManifestChecksum) {
			if p, ok := scr.Ledger.Lookup(r.Path); ok && scr.CheckRepair(p) {
				continue
			}
		}
		return err
	}
	return nil
}

// orderedRecords lists the manifest's committed-file records in the
// deterministic verify order: steps ascending, posts ascending, merge
// last — so two reconciles of the same directory repair in the same order
// and log identical decisions.
func orderedRecords(m *ckpt.Manifest) []ckpt.Record {
	out := make([]ckpt.Record, 0, len(m.Steps)+len(m.Posts)+1)
	steps := make([]int, 0, len(m.Steps))
	for step := range m.Steps {
		steps = append(steps, step)
	}
	sort.Ints(steps)
	for _, step := range steps {
		out = append(out, m.Steps[step])
	}
	posts := make([]int, 0, len(m.Posts))
	for step := range m.Posts {
		posts = append(posts, step)
	}
	sort.Ints(posts)
	for _, step := range posts {
		out = append(out, m.Posts[step])
	}
	if m.Merge != nil {
		out = append(out, *m.Merge)
	}
	return out
}

// l2Product generates a step's Level 2 particle payload (gio format). The
// content is a pure function of (seed, step) — the property that lets a
// crashed-and-resumed campaign converge to byte-identical products no
// matter where the kills struck.
func l2Product(seed int64, step int) []byte {
	rng := rand.New(rand.NewSource(seed<<20 + int64(step)))
	n := 48 + (step*7)%16
	p := nbody.NewParticles(0)
	for i := 0; i < n; i++ {
		p.Append(rng.Float64()*100, rng.Float64()*100, rng.Float64()*100,
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(),
			int64(step)*1_000_000+int64(i))
	}
	var buf bytes.Buffer
	if err := gio.Write(&buf, []gio.Block{{Rank: 0, Particles: p}}); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}

// centersProduct generates a step's halo-center catalog, again purely from
// (seed, step).
func centersProduct(seed int64, step int) []byte {
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(step)*2654435761))
	n := 3 + step%5
	recs := make([]cosmotools.CenterRecord, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, cosmotools.CenterRecord{
			HaloTag:   int64(step)*1000 + int64(i),
			MBPTag:    int64(step)*1000 + int64(rng.Intn(900)),
			Pos:       [3]float64{rng.Float64() * 100, rng.Float64() * 100, rng.Float64() * 100},
			Potential: -1e13 * (1 + rng.Float64()),
			Count:     300_000 + rng.Intn(2_000_000),
		})
	}
	var buf bytes.Buffer
	if err := catalog.Write(&buf, recs); err != nil {
		panic(err) // in-memory write cannot fail
	}
	return buf.Bytes()
}
