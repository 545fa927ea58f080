package config

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/trace"
	"thermctl/internal/tracefile"
	"thermctl/internal/workload"
)

// shadowProbe records the same observables as TraceProbe into
// schema-indexed in-memory series, at the same cadence, from the same
// serial phase — an independent reference the file must reproduce bit
// for bit.
type shadowProbe struct {
	c      *cluster.Cluster
	series []trace.Series
	every  time.Duration
	next   time.Duration
}

func newShadowProbe(c *cluster.Cluster, every time.Duration) *shadowProbe {
	p := &shadowProbe{c: c, every: every}
	for _, d := range ClusterTraceSchema(len(c.Nodes)) {
		p.series = append(p.series, trace.Series{Name: d.Name})
	}
	return p
}

func (p *shadowProbe) OnStep(now time.Duration) {
	if now < p.next {
		return
	}
	p.next += p.every
	for i, n := range p.c.Nodes {
		base := i * 4
		p.series[base+0].Add(now, n.Sensor.Read())
		p.series[base+1].Add(now, n.Fan.Duty())
		p.series[base+2].Add(now, n.CPU.FreqGHz())
		p.series[base+3].Add(now, n.Power().Total())
	}
}

// buildTraced assembles a small scenario rig with the file probe, the
// in-memory probe and the shadow attached, runs a generator campaign,
// and returns the trace bytes, the in-memory set and the shadow series.
func buildTraced(t *testing.T, workers int) ([]byte, trace.Set, []trace.Series) {
	t.Helper()
	s := DefaultScenario()
	s.Nodes = 4
	s.Workers = workers
	s.Program = ""
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := rig.Cluster
	var buf bytes.Buffer
	w, err := AttachTraceProbe(c, &buf, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mem := NewTraceSet(ClusterTraceSchema(len(c.Nodes)))
	p, err := NewTraceProbe(c.Nodes, mem, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	c.AddController(p)
	shadow := newShadowProbe(c, time.Second)
	c.AddController(shadow)
	c.RunGenerator(workload.Constant(0.85), 30*time.Second)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mem, shadow.series
}

// sameSeries fails unless got matches want name for name, timestamp
// for timestamp and float64 for float64.
func sameSeries(t *testing.T, what string, got, want []trace.Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: series count %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		ws, gs := &want[i], &got[i]
		if gs.Name != ws.Name {
			t.Fatalf("%s: series %d = %q, want %q", what, i, gs.Name, ws.Name)
		}
		if gs.Len() != ws.Len() {
			t.Fatalf("%s: series %s: got %d points, want %d", what, ws.Name, gs.Len(), ws.Len())
		}
		for j := range ws.Points {
			wp, gp := ws.Points[j], gs.Points[j]
			if wp.T != gp.T || math.Float64bits(wp.V) != math.Float64bits(gp.V) {
				t.Fatalf("%s: series %s point %d = %+v, want %+v (bit-exact)", what, ws.Name, j, gp, wp)
			}
		}
	}
}

// TestTraceProbeRoundTrip is the acceptance check for both sinks:
// re-reading a written file, and the in-memory set, each reproduce the
// shadow's series bit for bit — every name, every timestamp, every
// float64.
func TestTraceProbeRoundTrip(t *testing.T) {
	img, mem, want := buildTraced(t, 1)
	r, err := tracefile.NewBytesReader(img)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Incomplete(); err != nil {
		t.Fatalf("Incomplete: %v", err)
	}
	got := NewTraceSet(r.Schema())
	if err := r.Samples(tracefile.Window{}, func(s tracefile.Sample) error {
		got[s.Series].Add(s.T, s.V)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "file", got, want)
	sameSeries(t, "memory", mem, want)
	if ns, _ := r.Counts(); ns == 0 {
		t.Fatal("trace recorded no samples")
	}
	if s := mem[TraceIndex(2, TraceFreq)]; s.Name != "n2_freq" {
		t.Fatalf("TraceIndex(2, TraceFreq) names %q, want n2_freq", s.Name)
	}
}

// TestTraceProbeRejectsBadInterval: every <= 0 must fail with the named
// error instead of registering a probe whose schedule never advances
// (it would sample on every step, bloating the trace silently).
func TestTraceProbeRejectsBadInterval(t *testing.T) {
	s := DefaultScenario()
	s.Nodes = 1
	s.Program = ""
	rig, err := s.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, every := range []time.Duration{0, -time.Second} {
		w, err := AttachTraceProbe(rig.Cluster, &buf, every)
		if err == nil {
			t.Fatalf("interval %s accepted", every)
		}
		if !errors.Is(err, ErrTraceInterval) {
			t.Fatalf("interval %s: error %v is not ErrTraceInterval", every, err)
		}
		if w != nil {
			t.Fatalf("interval %s: writer returned alongside error", every)
		}
		if p, err := NewTraceProbe(rig.Cluster.Nodes, NewTraceSet(ClusterTraceSchema(1)), every); !errors.Is(err, ErrTraceInterval) || p != nil {
			t.Fatalf("NewTraceProbe interval %s: probe %v, error %v; want ErrTraceInterval", every, p, err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("rejected probe still wrote %d header bytes", buf.Len())
	}
}

// TestTraceBytesIdenticalAcrossWorkers is the PR 2/4 determinism
// discipline applied to the trace file: the recorded bytes must not
// depend on the worker count stepping the cluster.
func TestTraceBytesIdenticalAcrossWorkers(t *testing.T) {
	ref, _, _ := buildTraced(t, 1)
	if len(ref) == 0 {
		t.Fatal("empty reference trace")
	}
	for _, workers := range []int{2, 4} {
		img, _, _ := buildTraced(t, workers)
		if !bytes.Equal(ref, img) {
			t.Fatalf("trace bytes at workers=%d differ from workers=1 (%d vs %d bytes)",
				workers, len(img), len(ref))
		}
	}
}
