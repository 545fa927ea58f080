package main

import (
	"math"
	"testing"
	"time"
)

// buckets reads the declared prof.<bucket>_pct metrics.
func buckets(t *testing.T) []string {
	t.Helper()
	d, err := loadDecls("../" + benchFile)
	if err != nil {
		t.Fatal(err)
	}
	return d.profBuckets()
}

func TestBucketOf(t *testing.T) {
	named := map[string]bool{}
	for _, b := range buckets(t) {
		named[b] = true
	}
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"thermctl/internal/fan.(*Fan).Duty"}, "fan"},
		{[]string{"runtime.mallocgc", "thermctl/internal/core/window.(*Window).Add"}, "core"},
		{[]string{"runtime.futex", "sync.(*Mutex).lockSlow", "sync.(*Mutex).Lock", "thermctl/internal/cpu.(*CPU).FreqGHz"}, "sync_mutex"},
		{[]string{"math.pow", "math.Pow", "thermctl/internal/thermal.RsaKPerW"}, "math_pow"},
		{[]string{"thermctl/internal/ipmi.(*BMC).serve"}, "other"},
		{[]string{"thermctl.NewSystem"}, "other"},
		{[]string{"sort.Slice", "main.quantile"}, "bench"},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime"},
		// Only the leaf-side run before the first repository frame
		// counts: a mutex further up the stack is the caller's business.
		{[]string{"thermctl/internal/rng.Norm", "sync.(*Mutex).Lock", "thermctl/internal/node.(*Node).Step"}, "rng"},
	} {
		if got := bucketOf(tc.frames, named); got != tc.want {
			t.Errorf("bucketOf(%q) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

var spin float64

// TestProfileSharesSumTo100 decodes a real CPU profile of this process.
func TestProfileSharesSumTo100(t *testing.T) {
	bs := buckets(t)
	p, err := startProfile()
	if err != nil {
		t.Fatal(err)
	}
	// The sum stays in a local until the end: under -race every store
	// to the package-level spin would run in the race runtime, whose
	// frames have no repository caller.
	acc := 0.0
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1e5; i++ {
			acc += math.Sqrt(float64(i))
		}
	}
	spin = acc
	shares, err := p.stop(bs)
	if err != nil {
		t.Fatal(err)
	}
	if got := sum(shares); math.Abs(got-100) > 1e-6 {
		t.Fatalf("shares sum to %v, want 100: %v", got, shares)
	}
	if shares["bench"] < 50 {
		t.Errorf("bench share %.1f%%, want most of a profile spent spinning in package main", shares["bench"])
	}
	if len(shares) != len(bs) {
		t.Errorf("%d buckets reported, want %d", len(shares), len(bs))
	}
}
