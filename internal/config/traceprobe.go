package config

import (
	"errors"
	"fmt"
	"io"
	"time"

	"thermctl/internal/cluster"
	"thermctl/internal/node"
	"thermctl/internal/trace"
	"thermctl/internal/tracefile"
)

// ErrTraceInterval reports an AttachTraceProbe sampling interval <= 0.
// A zero or negative interval would leave the probe's schedule stuck
// (next never advances past now), silently sampling every step.
var ErrTraceInterval = errors.New("config: trace probe interval must be positive")

// Per-node observables recorded by the trace probe, in series-index
// order within each node's block; TraceIndex maps (node, observable)
// to a ClusterTraceSchema index.
const (
	TraceTemp = iota
	TraceDuty
	TraceFreq
	TracePower
	traceSeriesPerNode
)

// TraceIndex returns the ClusterTraceSchema index of node's series for
// the observable q (TraceTemp, TraceDuty, TraceFreq or TracePower).
func TraceIndex(node, q int) int { return node*traceSeriesPerNode + q }

// ClusterTraceSchema declares the trace series of an n-node cluster:
// temp/duty/freq/power per node, named "n3_temp" and so on, with the
// physical units the unitsafe analyzer tracks in code.
func ClusterTraceSchema(n int) []tracefile.SeriesDef {
	defs := make([]tracefile.SeriesDef, 0, n*traceSeriesPerNode)
	for i := 0; i < n; i++ {
		prefix := fmt.Sprintf("n%d_", i)
		defs = append(defs,
			tracefile.SeriesDef{Name: prefix + "temp", Unit: "degC"},
			tracefile.SeriesDef{Name: prefix + "duty", Unit: "percent"},
			tracefile.SeriesDef{Name: prefix + "freq", Unit: "GHz"},
			tracefile.SeriesDef{Name: prefix + "power", Unit: "W"},
		)
	}
	return defs
}

// TraceSink receives the trace probe's samples, addressed by
// ClusterTraceSchema index. A *tracefile.Writer streams them to a .tct
// file; a trace.Set keeps them in memory.
type TraceSink interface {
	Append(series int, t time.Duration, v float64)
}

// TraceProbe samples every node's temp, duty, freq and power into a
// sink on a fixed schedule: the one sampler behind every trace. On a
// cluster it runs as a controller in the serial phase, which both
// serializes access to the sink and keeps the samples identical at
// every worker count — the same discipline the fault plane follows.
type TraceProbe struct {
	nodes []*node.Node
	sink  TraceSink
	every time.Duration
	next  time.Duration
}

// NewTraceProbe returns a probe sampling nodes into sink every
// interval; call OnStep after each step, or attach it as a cluster
// controller.
func NewTraceProbe(nodes []*node.Node, sink TraceSink, every time.Duration) (*TraceProbe, error) {
	if every <= 0 {
		return nil, fmt.Errorf("%w (got %s)", ErrTraceInterval, every)
	}
	return &TraceProbe{nodes: nodes, sink: sink, every: every}, nil
}

// AttachTraceProbe writes the schema header for the cluster to dst and
// registers a probe sampling every interval. Close the returned writer
// after the run to flush chunks and the index footer; the first
// append/write error surfaces there.
//
// The step-path probe writes raw (uncompressed) chunks: on a
// single-core host the flusher's flate pass cannot overlap the step
// loop, and its cost alone breaches the 5% trace-overhead gate —
// while the delta+varint encoding already carries most of the size
// win. Offline writers (golden images) keep compression on.
func AttachTraceProbe(c *cluster.Cluster, dst io.Writer, every time.Duration) (*tracefile.Writer, error) {
	p, err := NewTraceProbe(c.Nodes, nil, every)
	if err != nil {
		return nil, err
	}
	w, err := tracefile.NewWriter(dst, ClusterTraceSchema(len(c.Nodes)),
		&tracefile.Options{NoCompress: true})
	if err != nil {
		return nil, err
	}
	p.sink = w
	c.AddController(p)
	return w, nil
}

// NewTraceSet returns an empty in-memory trace laid out and named by
// schema, one series per entry, so a sample's schema index is its
// index in the set. Over ClusterTraceSchema, look a series up with
// TraceIndex.
func NewTraceSet(schema []tracefile.SeriesDef) trace.Set {
	set := make(trace.Set, len(schema))
	for i, d := range schema {
		set[i].Name = d.Name
	}
	return set
}

// OnStep implements cluster.Controller.
func (p *TraceProbe) OnStep(now time.Duration) {
	if now < p.next {
		return
	}
	p.next += p.every
	for i, n := range p.nodes {
		base := i * traceSeriesPerNode
		p.sink.Append(base+TraceTemp, now, n.Sensor.Read())
		p.sink.Append(base+TraceDuty, now, n.Fan.Duty())
		p.sink.Append(base+TraceFreq, now, n.CPU.FreqGHz())
		p.sink.Append(base+TracePower, now, n.Power().Total())
	}
}
