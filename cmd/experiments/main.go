// Command experiments regenerates every table and figure of the paper's
// evaluation on the simulated cluster and prints them in the paper's
// layout.
//
// Usage:
//
//	experiments [-only fig5,table1] [-seed N] [-csv dir]
//
// With -csv, the temperature/duty/frequency time series behind each
// figure are written as CSV files into the given directory, ready for
// plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"thermctl/internal/experiment"
	"thermctl/internal/report"
	"thermctl/internal/trace"
)

func main() {
	only := flag.String("only", "", "comma-separated subset: fig2,fig5,fig6,fig7,fig8,fig9,table1,fig10,fanfailure,scaling,rack,workloads,ablation,sleepstates,loadshapes,metrics,chaos")
	seed := flag.Uint64("seed", experiment.Seed, "simulation seed")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV series into")
	markdown := flag.Bool("markdown", false, "emit the full generated reproduction report as markdown and exit")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines stepping each cluster (results are identical for any value)")
	flag.Parse()
	if *workers < 1 {
		fmt.Fprintf(os.Stderr, "experiments: -workers %d: need at least one worker\n", *workers)
		flag.Usage()
		os.Exit(2)
	}
	experiment.Workers = *workers

	if *markdown {
		all, err := report.Collect(*seed)
		if err != nil {
			fatal(err)
		}
		if err := all.Markdown(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToLower(k))] = true
		}
	}
	run := func(name string) bool { return len(want) == 0 || want[name] }

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
	}

	if run("fig2") {
		r := show(experiment.Fig2(*seed))
		writeSeries(*csvDir, "fig2.csv", map[string]*trace.Series{"temp": r.Temp})
	}
	if run("fig5") {
		r := show(experiment.Fig5(*seed))
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			series[fmt.Sprintf("duty_pp%d", row.Pp)] = row.Duty
		}
		writeSeries(*csvDir, "fig5.csv", series)
	}
	if run("fig6") {
		r := show(experiment.Fig6(*seed))
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series["temp_"+row.Method] = row.Temp
			series["duty_"+row.Method] = row.Duty
		}
		writeSeries(*csvDir, "fig6.csv", series)
	}
	if run("fig7") {
		r := show(experiment.Fig7(*seed))
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_cap%.0f", row.MaxDuty)] = row.Temp
			series[fmt.Sprintf("duty_cap%.0f", row.MaxDuty)] = row.Duty
		}
		writeSeries(*csvDir, "fig7.csv", series)
	}
	if run("fig8") {
		r := show(experiment.Fig8(*seed))
		writeSeries(*csvDir, "fig8.csv", map[string]*trace.Series{
			"temp": r.Temp, "freq": r.Freq,
		})
	}
	if run("fig9") {
		r := show(experiment.Fig9(*seed))
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series["temp_"+row.Daemon] = row.Temp
			series["freq_"+row.Daemon] = row.Freq
		}
		writeSeries(*csvDir, "fig9.csv", series)
	}
	if run("table1") {
		show(experiment.Table1(*seed))
	}
	if run("fanfailure") {
		show(experiment.FanFailure(*seed))
	}
	if run("rack") {
		show(experiment.RackStudy(*seed))
	}
	if run("workloads") {
		show(experiment.WorkloadStudy(*seed))
	}
	if run("ablation") {
		show(experiment.Ablation(*seed))
	}
	if run("scaling") {
		show(experiment.Scaling(*seed))
	}
	if run("fig10") {
		r := show(experiment.Fig10(*seed))
		series := map[string]*trace.Series{}
		for _, row := range r.Rows {
			series[fmt.Sprintf("temp_pp%d", row.Pp)] = row.Temp
			series[fmt.Sprintf("freq_pp%d", row.Pp)] = row.Freq
		}
		writeSeries(*csvDir, "fig10.csv", series)
	}
	if run("sleepstates") {
		show(experiment.SleepStates(*seed))
	}
	if run("loadshapes") {
		show(experiment.LoadShapes(*seed))
	}
	if run("chaos") {
		show(experiment.Chaos(*seed))
	}
	if run("metrics") {
		samples, err := report.CollectMetrics(*seed)
		if err != nil {
			fatal(err)
		}
		fmt.Println("observability metrics (10-minute instrumented unified-control run):")
		for _, s := range samples {
			fmt.Printf("  %-45s %g\n", s.Name, s.Value)
		}
	}
}

func writeSeries(dir, name string, series map[string]*trace.Series) {
	if dir == "" {
		return
	}
	// Columns go in sorted label order, so the CSV does not vary run to
	// run; the label, not the series' own name, heads each column.
	labels := make([]string, 0, len(series))
	for label := range series {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	cols := make([]*trace.Series, 0, len(labels))
	for _, label := range labels {
		if s := series[label]; s != nil && s.Len() > 0 {
			cols = append(cols, &trace.Series{Name: label, Points: s.Points})
		}
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := trace.WriteCSV(f, cols...); err != nil {
		fatal(err)
	}
	fmt.Printf("  wrote %s\n", filepath.Join(dir, name))
}

// show prints a result, or exits on its error.
func show[T any](r T, err error) T {
	if err != nil {
		fatal(err)
	}
	fmt.Println(r)
	return r
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
