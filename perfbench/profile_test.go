package main

import (
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var sink float64

func spin(d time.Duration) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			sink += float64(i) * 1.0000001
		}
	}
}

// The hand-written protobuf walk must recover stacks and pprof labels from
// a real CPU profile.
func TestParseProfileFindsLabelledStacks(t *testing.T) {
	p, err := startProfile()
	if err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	labelled(true, func() { spin(300 * time.Millisecond) })
	spin(100 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(p.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inUnit, spinning int
	for _, s := range samples {
		if s.labels[unitLabel] != unitValue {
			continue
		}
		inUnit++
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spin") {
				spinning++
				break
			}
		}
	}
	if inUnit == 0 || spinning == 0 {
		t.Fatalf("%d labelled samples, %d of them in spin; want both > 0 (of %d samples)", inUnit, spinning, len(samples))
	}
}

func TestBucket(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"sort.insertionSortLessFunc", "repro/internal/fs.(*System).List", "repro/internal/sched.(*Listener).sweep"}, "fs"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall", "os.(*File).Sync", "repro/internal/ckpt.WriteFileAtomic"}, "syscall"},
		{[]string{"runtime.mallocgc", "main.(*measurer).one"}, "other"},
	} {
		if got := bucket(tc.stack); got != tc.want {
			t.Errorf("bucket(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

func TestUnattributed(t *testing.T) {
	ms := time.Millisecond
	r := &recorder{spans: []span{
		{ID: 1, Name: "unit", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms},
		{ID: 4, Parent: 2, Name: "nested", Start: 70 * ms, End: 90 * ms},
	}}
	// Direct children cover 10..60 ms; the grandchild does not count.
	if got := r.unattributed("unit", nil); got < 0.4999 || got > 0.5001 {
		t.Errorf("unattributed = %v, want 0.5", got)
	}
	// An opaque child accounts for only part of its 30 ms.
	if got := r.unattributed("unit", map[string]float64{"b": 0.5}); got < 0.6499 || got > 0.6501 {
		t.Errorf("unattributed with b half opaque = %v, want 0.65", got)
	}
}
