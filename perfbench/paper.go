package main

// The paper workload: one operation regenerates the whole reproduction
// report, what `experiments -markdown -seed N` prints, serially. The
// traced path calls the functions report.Collect calls, in its order,
// timing each, and renders the same report.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"thermctl/internal/experiment"
	"thermctl/internal/report"
)

// paperHeapOps is the regenerations peak_heap_mb covers: about half a
// 30 s run on a 2-vCPU host.
const paperHeapOps = 25

// paperSteps are the functions report.Collect calls, in its order, each
// with the span that times it on the traced path.
var paperSteps = []struct {
	span string
	run  func(all *report.All, seed uint64) error
}{
	{"experiment.fig2", func(a *report.All, s uint64) (e error) { a.Fig2, e = experiment.Fig2(s); return }},
	{"experiment.fig5", func(a *report.All, s uint64) (e error) { a.Fig5, e = experiment.Fig5(s); return }},
	{"experiment.fig6", func(a *report.All, s uint64) (e error) { a.Fig6, e = experiment.Fig6(s); return }},
	{"experiment.fig7", func(a *report.All, s uint64) (e error) { a.Fig7, e = experiment.Fig7(s); return }},
	{"experiment.fig8", func(a *report.All, s uint64) (e error) { a.Fig8, e = experiment.Fig8(s); return }},
	{"experiment.fig9", func(a *report.All, s uint64) (e error) { a.Fig9, e = experiment.Fig9(s); return }},
	{"experiment.table1", func(a *report.All, s uint64) (e error) { a.Table1, e = experiment.Table1(s); return }},
	{"experiment.fig10", func(a *report.All, s uint64) (e error) { a.Fig10, e = experiment.Fig10(s); return }},
	{"experiment.fanfailure", func(a *report.All, s uint64) (e error) { a.FanFailure, e = experiment.FanFailure(s); return }},
	{"experiment.scaling", func(a *report.All, s uint64) (e error) { a.Scaling, e = experiment.Scaling(s); return }},
	{"experiment.rack", func(a *report.All, s uint64) (e error) { a.Rack, e = experiment.RackStudy(s); return }},
	{"experiment.workloads", func(a *report.All, s uint64) (e error) { a.Workloads, e = experiment.WorkloadStudy(s); return }},
	{"experiment.chaos", func(a *report.All, s uint64) (e error) { a.Chaos, e = experiment.Chaos(s); return }},
	{"report.metrics", func(a *report.All, s uint64) (e error) { a.Metrics, e = report.CollectMetrics(s); return }},
}

type paper struct {
	seed uint64
	// ref is the warm-up regeneration's markdown digest; every
	// operation must reproduce it.
	ref       string
	ops       int
	verdicts  int
	deviation int
}

func setupPaper(e *env, _ *recorder) (instance, error) {
	experiment.Workers = 1
	if err := e.record(fmt.Sprintf("paper-seed%d.json", e.seed), []byte(fmt.Sprintf("{\"experiment_seed\": %d}\n", e.seed))); err != nil {
		return nil, err
	}
	p := &paper{seed: e.seed}
	md, err := p.regenerate(nil)
	if err != nil {
		return nil, err
	}
	p.ref = mdDigest(md)
	p.verdicts = strings.Count(md, "reproduced")
	p.deviation = strings.Count(md, "DEVIATION")
	return p, nil
}

func (p *paper) clients() int       { return 1 }
func (p *paper) workPerOp() float64 { return 1 }
func (p *paper) heapOps() int       { return paperHeapOps }
func (p *paper) digest() string     { return p.ref }
func (p *paper) trace(bool)         {}

func (p *paper) op(_ int, rec *recorder) (time.Duration, error) {
	t0 := time.Now()
	md, err := p.regenerate(rec)
	lat := time.Since(t0)
	rec.span("paper.op", "", int64(p.ops), t0)
	p.ops++
	if err != nil {
		return lat, err
	}
	if got := mdDigest(md); got != p.ref {
		return lat, fmt.Errorf("paper: regeneration %d rendered digest %s, want %s", p.ops, got, p.ref)
	}
	return lat, nil
}

// regenerate renders the report; with a recorder it times every
// experiment on the way.
func (p *paper) regenerate(rec *recorder) (string, error) {
	var all *report.All
	if rec == nil {
		var err error
		if all, err = report.Collect(p.seed); err != nil {
			return "", err
		}
	} else {
		all = &report.All{}
		for _, st := range paperSteps {
			t0 := time.Now()
			err := st.run(all, p.seed)
			rec.span(st.span, "paper.op", int64(p.ops), t0)
			if err != nil {
				return "", err
			}
		}
	}
	var buf bytes.Buffer
	t0 := time.Now()
	if err := all.Markdown(&buf); err != nil {
		return "", err
	}
	rec.span("report.markdown", "paper.op", int64(p.ops), t0)
	return buf.String(), nil
}

// layers reports each step's median as <span>_ms.
func (p *paper) layers(rec *recorder, l *metricSet) {
	for _, st := range paperSteps {
		l.set(st.span+"_ms", rec.spanMS(st.span, 0.5))
	}
	l.set("report.markdown_ms", rec.spanMS("report.markdown", 0.5))
}

func (p *paper) finish() error {
	fmt.Printf("paper: markdown digest %s over %d regenerations; %d \"reproduced\" verdicts, %d deviations\n",
		p.ref, p.ops, p.verdicts, p.deviation)
	return nil
}

func (p *paper) close() {}

func mdDigest(md string) string {
	sum := sha256.Sum256([]byte(md))
	return hex.EncodeToString(sum[:8])
}
