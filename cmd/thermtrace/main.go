// Command thermtrace inspects .tct trace files (see internal/tracefile
// and DESIGN.md §12): the offline half of the out-of-core trace
// pipeline that -trace on clustersim and thermctld records.
//
// Usage:
//
//	thermtrace info run.tct
//	thermtrace cat [-series n0_temp,n0_fan] [-from 30s] [-to 2m] [-events] run.tct
//	thermtrace diff [-tolerance 0.001] a.tct b.tct
//
// info prints the schema and a streaming per-series digest (count,
// min, mean, max, last) plus the reader's recovery report when the
// file is truncated. cat slices by series and time window and emits
// CSV (or, with -events, the raw event lines). diff compares two
// traces byte for byte and then value by value within a tolerance,
// exiting 1 on divergence — the primitive trace-based golden tests are
// built on.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"thermctl/internal/config"
	"thermctl/internal/report"
	"thermctl/internal/trace"
	"thermctl/internal/tracefile"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches the subcommands; tests drive it directly.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "info":
		err = infoCmd(args[1:], stdout)
	case "cat":
		err = catCmd(args[1:], stdout)
	case "diff":
		var same bool
		same, err = diffCmd(args[1:], stdout)
		if err == nil && !same {
			return 1
		}
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	default:
		fmt.Fprintf(stderr, "thermtrace: unknown command %q\n", args[0])
		usage(stderr)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "thermtrace:", err)
		return 2
	}
	return 0
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  thermtrace info <file.tct>
  thermtrace cat [-series a,b] [-from dur] [-to dur] [-events] <file.tct>
  thermtrace diff [-tolerance f] <a.tct> <b.tct>
`)
}

func infoCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("info wants exactly one trace file")
	}
	path := fs.Arg(0)
	sum, err := report.SummarizeTraceFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", path)
	return sum.WriteText(stdout)
}

// window parses -from/-to into the reader's Window.
func window(from, to string) (tracefile.Window, error) {
	var win tracefile.Window
	if from != "" {
		d, err := time.ParseDuration(from)
		if err != nil {
			return win, fmt.Errorf("bad -from: %w", err)
		}
		win.From = d
	}
	if to != "" {
		d, err := time.ParseDuration(to)
		if err != nil {
			return win, fmt.Errorf("bad -to: %w", err)
		}
		win.To = d
	}
	return win, nil
}

func catCmd(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cat", flag.ContinueOnError)
	series := fs.String("series", "", "comma-separated series names to include (default all)")
	from := fs.String("from", "", "window start (Go duration, e.g. 30s)")
	to := fs.String("to", "", "window end (Go duration)")
	events := fs.Bool("events", false, "emit the event lines instead of sample CSV")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("cat wants exactly one trace file")
	}
	win, err := window(*from, *to)
	if err != nil {
		return err
	}
	r, closer, err := tracefile.OpenFile(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closer.Close()

	if *events {
		return r.Events(win, func(e tracefile.Event) error {
			_, err := fmt.Fprintf(stdout, "%s\t%s\n", e.T, e.Text)
			return err
		})
	}

	keep := map[string]bool{}
	if *series != "" {
		for _, n := range strings.Split(*series, ",") {
			keep[strings.TrimSpace(n)] = true
		}
		for n := range keep {
			found := false
			for _, d := range r.Schema() {
				if d.Name == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("series %q is not in the file's schema", n)
			}
		}
	}
	// CSV joins rows on timestamps, so the slice is assembled in memory,
	// filtered first to keep only the requested columns resident. Columns
	// go in first-sample order; a series with no sample gets none.
	set := config.NewTraceSet(r.Schema())
	var cols []*trace.Series
	err = r.Samples(win, func(s tracefile.Sample) error {
		col := &set[s.Series]
		if len(keep) > 0 && !keep[col.Name] {
			return nil
		}
		if col.Len() == 0 {
			cols = append(cols, col)
		}
		col.Add(s.T, s.V)
		return nil
	})
	if err != nil {
		return err
	}
	return trace.WriteCSV(stdout, cols...)
}

func diffCmd(args []string, stdout io.Writer) (bool, error) {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tolerance", 0, "max absolute per-sample value difference")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() != 2 {
		return false, fmt.Errorf("diff wants exactly two trace files")
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)

	// Byte level first: identical files need no decoding at all.
	ba, err := os.ReadFile(pathA)
	if err != nil {
		return false, err
	}
	bb, err := os.ReadFile(pathB)
	if err != nil {
		return false, err
	}
	if bytes.Equal(ba, bb) {
		fmt.Fprintf(stdout, "byte-identical (%d bytes)\n", len(ba))
		return true, nil
	}

	ra, err := tracefile.NewBytesReader(ba)
	if err != nil {
		return false, fmt.Errorf("%s: %w", pathA, err)
	}
	rb, err := tracefile.NewBytesReader(bb)
	if err != nil {
		return false, fmt.Errorf("%s: %w", pathB, err)
	}
	res, err := tracefile.Diff(ra, rb, *tol)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "bytes differ; samples %d/%d, events %d/%d, max value delta %g\n",
		res.SamplesA, res.SamplesB, res.EventsA, res.EventsB, res.MaxDelta)
	if res.Equal() {
		fmt.Fprintf(stdout, "values equal within tolerance %g\n", *tol)
		return true, nil
	}
	fmt.Fprintf(stdout, "DIFFER: %s\n", res.First)
	return false, nil
}
