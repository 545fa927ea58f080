// Command hotspot attributes thermal behaviour to labelled program
// phases from an exported temperature trace — the offline companion of
// the Tempest-style profiler in internal/hotspot.
//
// Usage:
//
//	hotspot -trace run.csv [-series temp] phase:start:end ...
//
// The trace is a CSV in the cmd/experiments -csv format (a "time_s"
// column plus named series). Each positional argument labels a span:
// "compute:30:90" attributes the samples between 30 s and 90 s to the
// phase "compute". Labels may repeat.
//
// Example against a generated figure:
//
//	go run ./cmd/experiments -only fig2 -csv /tmp/out
//	go run ./cmd/hotspot -trace /tmp/out/fig2.csv \
//	    idle:0:30 onset:30:90 jitter:90:150 ramp:150:270 cooldown:270:300
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"thermctl/internal/hotspot"
	"thermctl/internal/trace"
)

func main() {
	tracePath := flag.String("trace", "", "CSV trace file (required)")
	seriesName := flag.String("series", "temp", "name of the temperature column")
	flag.Parse()
	if *tracePath == "" || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: hotspot -trace run.csv [-series temp] label:start_s:end_s ...")
		os.Exit(2)
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	cols, err := trace.ReadCSV(f)
	if err != nil {
		fatal(err)
	}
	var series *trace.Series
	names := make([]string, len(cols))
	for i, s := range cols {
		names[i] = s.Name
		if s.Name == *seriesName {
			series = s
		}
	}
	if series == nil {
		fatal(fmt.Errorf("series %q not in trace (have: %s)",
			*seriesName, strings.Join(names, ", ")))
	}

	var spans []hotspot.Span
	for _, arg := range flag.Args() {
		sp, err := parseSpan(arg)
		if err != nil {
			fatal(err)
		}
		spans = append(spans, sp)
	}

	rep, err := hotspot.Analyze(series, spans)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep)
}

func parseSpan(arg string) (hotspot.Span, error) {
	parts := strings.Split(arg, ":")
	if len(parts) != 3 {
		return hotspot.Span{}, fmt.Errorf("bad span %q, want label:start_s:end_s", arg)
	}
	start, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return hotspot.Span{}, fmt.Errorf("bad span start in %q", arg)
	}
	end, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return hotspot.Span{}, fmt.Errorf("bad span end in %q", arg)
	}
	return hotspot.Span{
		Label: parts[0],
		Start: time.Duration(start * float64(time.Second)),
		End:   time.Duration(end * float64(time.Second)),
	}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotspot:", err)
	os.Exit(1)
}
