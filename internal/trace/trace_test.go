package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

func sec(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func TestSeriesStats(t *testing.T) {
	var s Series
	for i, v := range []float64{1, 2, 3, 4} {
		s.Add(sec(float64(i)), v)
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v, want 2.5", s.Mean())
	}
	if s.Max() != 4 || s.Min() != 1 || s.Last() != 4 {
		t.Errorf("Max/Min/Last = %v/%v/%v", s.Max(), s.Min(), s.Last())
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.Last()) {
		t.Error("empty series Mean/Last should be NaN")
	}
	if !math.IsInf(s.Max(), -1) || !math.IsInf(s.Min(), 1) {
		t.Error("empty series Max/Min should be ∓Inf")
	}
	if s.StabilizationTime(1) != 0 {
		t.Error("empty series StabilizationTime should be 0")
	}
}

func TestMeanAfter(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		v := 0.0
		if i >= 5 {
			v = 10
		}
		s.Add(sec(float64(i)), v)
	}
	if got := s.MeanAfter(sec(5)); got != 10 {
		t.Errorf("MeanAfter(5s) = %v, want 10", got)
	}
	if !math.IsNaN(s.MeanAfter(sec(100))) {
		t.Error("MeanAfter beyond the series should be NaN")
	}
}

func TestStabilizationTime(t *testing.T) {
	var s Series
	// Ramp for 10 s then flat at 50 for 10 s.
	for i := 0; i <= 20; i++ {
		v := 50.0
		if i < 10 {
			v = float64(i) * 5
		}
		s.Add(sec(float64(i)), v)
	}
	got := s.StabilizationTime(1)
	if got != sec(10) {
		t.Errorf("StabilizationTime = %v, want 10s", got)
	}
}

func TestStabilizationNeverSettles(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Add(sec(float64(i)), float64(i*10))
	}
	// Only the final sample is within the band of itself, so the series
	// "settles" at its very last timestamp.
	if got := s.StabilizationTime(1); got != sec(9) {
		t.Errorf("StabilizationTime = %v, want 9s", got)
	}
}

func TestStabilizationFlatSeries(t *testing.T) {
	var s Series
	for i := 0; i < 5; i++ {
		s.Add(sec(float64(i)), 42)
	}
	if got := s.StabilizationTime(0.5); got != 0 {
		t.Errorf("flat series stabilization = %v, want 0", got)
	}
}

func TestPercentile(t *testing.T) {
	var s Series
	for i, v := range []float64{10, 20, 30, 40, 50} {
		s.Add(sec(float64(i)), v)
	}
	if got := s.Percentile(0); got != 10 {
		t.Errorf("p0 = %v", got)
	}
	if got := s.Percentile(100); got != 50 {
		t.Errorf("p100 = %v", got)
	}
	if got := s.Percentile(50); got != 30 {
		t.Errorf("p50 = %v", got)
	}
	if got := s.Percentile(25); got != 20 {
		t.Errorf("p25 = %v", got)
	}
	if got := s.Percentile(90); math.Abs(got-46) > 1e-9 {
		t.Errorf("p90 = %v, want 46 (interpolated)", got)
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	var s Series
	if !math.IsNaN(s.Percentile(50)) {
		t.Error("empty series percentile should be NaN")
	}
	s.Add(0, 42)
	if got := s.Percentile(99); got != 42 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(s.Percentile(-1)) || !math.IsNaN(s.Percentile(101)) {
		t.Error("out-of-range p should be NaN")
	}
	// Percentile must not mutate the series ordering.
	s.Add(sec(1), 1)
	s.Percentile(50)
	if s.Points[0].V != 42 {
		t.Error("Percentile reordered the series")
	}
}

func TestStdAndMean(t *testing.T) {
	vs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(vs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if sd := Std(vs); math.Abs(sd-2) > 1e-9 {
		t.Errorf("Std = %v, want 2", sd)
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) {
		t.Error("empty Mean/Std should be NaN")
	}
}

// findSeries returns the series named name, or nil.
func findSeries(all []*Series, name string) *Series {
	for _, s := range all {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func TestCSVRoundTrip(t *testing.T) {
	temp, duty := &Series{Name: "temp"}, &Series{Name: "duty"}
	for i := 0; i < 10; i++ {
		temp.Add(sec(float64(i)*0.25), 40+float64(i))
		if i%2 == 0 {
			duty.Add(sec(float64(i)*0.25), float64(10*i))
		}
	}
	var sb strings.Builder
	if err := WriteCSV(&sb, temp, duty); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("%d series after round trip, want 2", len(back))
	}
	got := findSeries(back, "temp")
	if got == nil || got.Len() != 10 {
		t.Fatalf("temp round trip: %+v", got)
	}
	if got.Points[3].V != 43 || got.Points[3].T != sec(0.75) {
		t.Errorf("sample 3: %+v", got.Points[3])
	}
	got = findSeries(back, "duty")
	if got == nil || got.Len() != 5 {
		t.Fatalf("duty round trip (sparse column): %+v", got)
	}
}

// TestCSVRoundTripSparse round-trips series that share no timestamps,
// so every row has empty cells; ReadCSV must skip them without
// inventing samples, and order/values must survive exactly.
func TestCSVRoundTripSparse(t *testing.T) {
	zeta := &Series{Name: "zeta", Points: []Point{{1 * time.Second, -3.25}, {3 * time.Second, 101.5}}}
	alpha := &Series{Name: "alpha", Points: []Point{{2 * time.Second, 0}, {4 * time.Second, 42.0625}}}
	var buf bytes.Buffer
	// Deliberately pass "zeta" first: column order is argument order,
	// not alphabetical, and must survive the round trip.
	if err := WriteCSV(&buf, zeta, alpha); err != nil {
		t.Fatal(err)
	}
	// Every data row must contain exactly one empty cell (the series
	// that has no sample at that timestamp).
	for i, row := range strings.Split(strings.TrimSpace(buf.String()), "\n")[1:] {
		empties := 0
		for _, cell := range strings.Split(row, ",") {
			if cell == "" {
				empties++
			}
		}
		if empties != 1 {
			t.Errorf("row %d %q has %d empty cells, want 1", i, row, empties)
		}
	}
	back, err := ReadCSV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 || back[0].Name != "zeta" || back[1].Name != "alpha" {
		t.Fatalf("series after round trip = %+v, want zeta then alpha", back)
	}
	for i, want := range []*Series{zeta, alpha} {
		s := back[i]
		if s.Len() != want.Len() {
			t.Fatalf("%s: %d points after round trip, want %d", s.Name, s.Len(), want.Len())
		}
		for j, p := range s.Points {
			if p.T != want.Points[j].T || math.Abs(p.V-want.Points[j].V) > 1e-9 {
				t.Errorf("%s[%d] = %+v, want %+v", s.Name, j, p, want.Points[j])
			}
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		body string
		want error // nil: any error
	}{
		{"empty", "", nil},
		{"bad header", "notheader,a\n1,2\n", nil},
		{"no series", "time_s\n", nil},
		{"bad timestamp", "time_s,a\nx,1\n", ErrBadTimestamp},
		{"bad value", "time_s,a\n1,notnum\n", nil},
		{"ragged row", "time_s,a\n1,2,3\n", nil},
		{"duplicate column", "time_s,a,a\n1,1,2\n", ErrDuplicateColumn},
		{"empty column name", "time_s,a,\n1,1,2\n", ErrEmptyColumn},
		{"NaN timestamp", "time_s,a\nNaN,1\n", ErrBadTimestamp},
		{"infinite timestamp", "time_s,a\n+Inf,1\n", ErrBadTimestamp},
		{"timestamp beyond Duration", "time_s,a\n1e10,1\n", ErrBadTimestamp},
		{"repeated time row", "time_s,a\n1,1\n1,2\n", ErrTimeOrder},
		{"decreasing time row", "time_s,a\n2,1\n1,2\n", ErrTimeOrder},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.body))
			if err == nil {
				t.Fatalf("malformed CSV accepted: %q", c.body)
			}
			if c.want != nil && !errors.Is(err, c.want) {
				t.Fatalf("error %v, want %v", err, c.want)
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a", Points: []Point{{0, 1}, {sec(1), 3}}}
	b := &Series{Name: "b", Points: []Point{{0, 2}}}
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	want := "time_s,a,b\n0.000,1.0000,2.0000\n1.000,3.0000,\n"
	if out != want {
		t.Fatalf("CSV =\n%s\nwant\n%s", out, want)
	}
}

// TestWriteCSVErrors: WriteCSV refuses, before writing a byte, two
// distinct timestamps that its millisecond time column would print as
// one row (ReadCSV would refuse that row), and a time ReadCSV could not
// parse back.
func TestWriteCSVErrors(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		series []*Series
		want   error
	}{
		{"sub-millisecond apart", []*Series{{Name: "a", Points: []Point{{ms, 1}, {ms + 400*time.Microsecond, 2}}}}, ErrTimeCollision},
		{"across series", []*Series{{Name: "a", Points: []Point{{ms, 1}}}, {Name: "b", Points: []Point{{ms + 1, 2}}}}, ErrTimeCollision},
		{"negative zero row", []*Series{{Name: "a", Points: []Point{{-100 * time.Microsecond, 1}, {0, 2}}}}, ErrTimeCollision},
		{"beyond ReadCSV range", []*Series{{Name: "a", Points: []Point{{math.MaxInt64, 1}}}}, ErrBadTimestamp},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			err := WriteCSV(&sb, c.series...)
			if !errors.Is(err, c.want) {
				t.Fatalf("error %v, want %v", err, c.want)
			}
			if sb.Len() != 0 {
				t.Fatalf("wrote %q before refusing", sb.String())
			}
		})
	}
}

// FuzzReadCSV throws arbitrary text at the CSV reader: it must never
// panic, and whatever it accepts must be a file WriteCSV can emit
// again without merging or dropping a sample — non-empty, unique
// series names and strictly increasing timestamps in every series.
func FuzzReadCSV(f *testing.F) {
	f.Add("time_s,a,b\n0.000,1.0000,2.0000\n1.000,3.0000,\n")
	f.Add("time_s,zeta,alpha\n1.000,-3.2500,\n2.000,,0.0000\n")
	f.Add("time_s,a,a\n1,1,2\n")
	f.Add("time_s,a,\n1,1,2\n")
	f.Add("time_s,a\nNaN,1\n")
	f.Add("time_s,a\n1,1\n1,2\n")
	f.Add("time_s,a\n-1e300,1\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, body string) {
		all, err := ReadCSV(strings.NewReader(body))
		if err != nil {
			return
		}
		names := make(map[string]bool, len(all))
		for _, s := range all {
			if s.Name == "" {
				t.Fatalf("accepted an empty series name in %q", body)
			}
			if names[s.Name] {
				t.Fatalf("accepted duplicate series %q in %q", s.Name, body)
			}
			names[s.Name] = true
			for i := 1; i < len(s.Points); i++ {
				if s.Points[i].T <= s.Points[i-1].T {
					t.Fatalf("series %q: timestamp %v after %v in %q",
						s.Name, s.Points[i].T, s.Points[i-1].T, body)
				}
			}
		}
	})
}
