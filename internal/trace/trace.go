// Package trace records and summarizes simulation time series: the
// temperature, fan duty, frequency and power curves that the paper's
// figures plot, plus the summary statistics its text quotes (averages,
// stabilization time).
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Point is one sample of one series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	//thermlint:allow hotalloc -- a series' whole job is to accumulate samples; growth is amortized O(1)
	s.Points = append(s.Points, Point{T: t, V: v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the sample values.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Mean returns the arithmetic mean, or NaN for an empty series.
func (s *Series) Mean() float64 { return Mean(s.Values()) }

// Max returns the largest sample value, or -Inf for an empty series.
func (s *Series) Max() float64 {
	m := math.Inf(-1)
	for _, p := range s.Points {
		if p.V > m {
			m = p.V
		}
	}
	return m
}

// Min returns the smallest sample value, or +Inf for an empty series.
func (s *Series) Min() float64 {
	m := math.Inf(1)
	for _, p := range s.Points {
		if p.V < m {
			m = p.V
		}
	}
	return m
}

// Last returns the final sample value, or NaN for an empty series.
func (s *Series) Last() float64 {
	if len(s.Points) == 0 {
		return math.NaN()
	}
	return s.Points[len(s.Points)-1].V
}

// MeanAfter returns the mean of samples at or after t — the steady-state
// average once transients have passed.
func (s *Series) MeanAfter(t time.Duration) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T >= t {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StabilizationTime returns the time of the first sample after which
// every remaining sample stays within ±band of the series' final value.
// It reports how quickly a controller settles — the comparison the
// paper's Figure 6 makes between dynamic and static fan control. It
// returns the last sample's time if the series never settles earlier,
// and 0 for an empty series.
func (s *Series) StabilizationTime(band float64) time.Duration {
	if len(s.Points) == 0 {
		return 0
	}
	final := s.Last()
	// Walk backwards to find the last sample outside the band.
	for i := len(s.Points) - 1; i >= 0; i-- {
		if math.Abs(s.Points[i].V-final) > band {
			if i == len(s.Points)-1 {
				return s.Points[i].T
			}
			return s.Points[i+1].T
		}
	}
	return s.Points[0].T
}

// Percentile returns the p-th percentile of the series values using
// linear interpolation between closest ranks, for p in [0, 100]. It
// returns NaN for an empty series or out-of-range p. Thermal SLOs are
// stated as tails (p95/p99 of die temperature), not means.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Points) == 0 || p < 0 || p > 100 || math.IsNaN(p) {
		return math.NaN()
	}
	vs := s.Values()
	sort.Float64s(vs)
	if len(vs) == 1 {
		return vs[0]
	}
	rank := p / 100 * float64(len(vs)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return vs[lo]
	}
	frac := rank - float64(lo)
	return vs[lo] + frac*(vs[hi]-vs[lo])
}

// Mean returns the arithmetic mean of vs, or NaN if empty.
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Std returns the population standard deviation of vs.
func Std(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	m := Mean(vs)
	var ss float64
	for _, v := range vs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(vs)))
}

// Set is an in-memory trace addressed by series index: element i holds
// series i of a schema, the in-memory counterpart of a .tct file's
// series table. Append makes it a sink for the per-node trace probe
// (config.TraceProbe), alongside tracefile.Writer.
type Set []Series

// Append adds a sample to series i.
func (s Set) Append(i int, t time.Duration, v float64) { s[i].Add(t, v) }

// Errors ReadCSV reports for input that would not survive WriteCSV
// unchanged: a duplicate column merges two series, and WriteCSV joins
// samples on timestamps, so a repeated time row loses a sample.
var (
	ErrEmptyColumn     = errors.New("trace: empty CSV column name")
	ErrDuplicateColumn = errors.New("trace: duplicate CSV column name")
	ErrBadTimestamp    = errors.New("trace: CSV timestamp not a number within Duration's range")
	ErrTimeOrder       = errors.New("trace: CSV time rows not strictly increasing")
	// ErrTimeCollision is WriteCSV's refusal to print two distinct
	// timestamps that its millisecond time column cannot tell apart:
	// ReadCSV would refuse the repeated row.
	ErrTimeCollision = errors.New("trace: distinct timestamps share one CSV time row")
)

// parseStamp reads a time_s cell as ReadCSV does; ok is false unless
// it is a number within Duration's range.
func parseStamp(cell string) (t time.Duration, ok bool) {
	ts, err := strconv.ParseFloat(cell, 64)
	ns := ts * float64(time.Second)
	if err != nil || !(math.Abs(ns) < math.MaxInt64) {
		return 0, false
	}
	return time.Duration(ns), true
}

// ReadCSV parses the format WriteCSV emits — a "time_s" column followed
// by one column per series; empty cells are skipped — and returns one
// series per column, in column order. It is the ingestion path for
// offline analysis (e.g. the hotspot profiler over an exported run).
func ReadCSV(r io.Reader) ([]*Series, error) {
	sc := bufio.NewScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return nil, fmt.Errorf("trace: empty CSV")
	}
	header := strings.Split(strings.TrimSpace(sc.Text()), ",")
	if len(header) < 2 || header[0] != "time_s" {
		return nil, fmt.Errorf("trace: malformed header %q", sc.Text())
	}
	cols := make([]*Series, len(header)-1)
	seen := make(map[string]bool, len(cols))
	for i, name := range header[1:] {
		if name == "" {
			return nil, fmt.Errorf("%w (column %d)", ErrEmptyColumn, i+2)
		}
		if seen[name] {
			return nil, fmt.Errorf("%w %q", ErrDuplicateColumn, name)
		}
		seen[name] = true
		cols[i] = &Series{Name: name}
	}
	line := 1
	var prev time.Duration
	for sc.Scan() {
		line++
		row := strings.Split(strings.TrimSpace(sc.Text()), ",")
		if len(row) != len(header) {
			return nil, fmt.Errorf("trace: line %d has %d fields, want %d", line, len(row), len(header))
		}
		t, ok := parseStamp(row[0])
		if !ok {
			return nil, fmt.Errorf("%w: line %d: %q", ErrBadTimestamp, line, row[0])
		}
		if line > 2 && t <= prev {
			return nil, fmt.Errorf("%w: line %d: %s after %s", ErrTimeOrder, line, t, prev)
		}
		prev = t
		for i, cell := range row[1:] {
			if cell == "" {
				continue
			}
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad value %q", line, cell)
			}
			cols[i].Add(t, v)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return cols, nil
}

// WriteCSV emits the series as CSV: a time column (seconds) followed by
// one column per series, in argument order, headed by the series'
// names, with rows joined on exact timestamps. Missing values are left
// empty. Times print to the millisecond; two distinct timestamps that
// would share a row are refused with ErrTimeCollision before anything
// is written, so every file WriteCSV emits reads back with ReadCSV.
func WriteCSV(w io.Writer, series ...*Series) error {
	// Collect the union of timestamps; index each series by timestamp.
	names := make([]string, len(series))
	stamps := map[time.Duration]bool{}
	idx := make([]map[time.Duration]float64, len(series))
	for i, s := range series {
		names[i] = s.Name
		m := make(map[time.Duration]float64, s.Len())
		for _, p := range s.Points {
			stamps[p.T] = true
			m[p.T] = p.V
		}
		idx[i] = m
	}
	ts := make([]time.Duration, 0, len(stamps))
	for t := range stamps {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	cells := make([]string, len(ts))
	var prev time.Duration
	for i, t := range ts {
		cells[i] = fmt.Sprintf("%.3f", t.Seconds())
		back, ok := parseStamp(cells[i])
		if !ok {
			return fmt.Errorf("%w: %s", ErrBadTimestamp, t)
		}
		if i > 0 && back <= prev {
			return fmt.Errorf("%w: %s and %s both print as %s", ErrTimeCollision, ts[i-1], t, cells[i])
		}
		prev = back
	}

	if _, err := fmt.Fprintf(w, "time_s,%s\n", strings.Join(names, ",")); err != nil {
		return err
	}
	for j, t := range ts {
		row := make([]string, 0, len(series)+1)
		row = append(row, cells[j])
		for i := range series {
			if v, ok := idx[i][t]; ok {
				row = append(row, fmt.Sprintf("%.4f", v))
			} else {
				row = append(row, "")
			}
		}
		if _, err := io.WriteString(w, strings.Join(row, ",")+"\n"); err != nil {
			return err
		}
	}
	return nil
}
