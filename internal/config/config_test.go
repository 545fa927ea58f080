package config

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestDefaultValidates(t *testing.T) {
	c := Default()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.SamplePeriod() != 250*time.Millisecond {
		t.Errorf("default sample period %v", c.SamplePeriod())
	}
}

func TestReadFillsDefaults(t *testing.T) {
	c, err := Read(strings.NewReader(`{"pp": 25}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.Pp != 25 {
		t.Errorf("pp = %d", c.Pp)
	}
	if c.MaxFanDuty != 100 || c.ThresholdC != 51 || c.SampleMS != 250 {
		t.Errorf("defaults not filled: %+v", c)
	}
}

func TestReadRejectsUnknownFields(t *testing.T) {
	for body, field := range map[string]string{
		`{"p": 50}`: "p", // typo protection
		// The former enable_dvfs knob was parsed but never read; -dvfs
		// none (or "dvfs": "none" in a scenario) turns tDVFS off.
		`{"enable_dvfs": false}`: "enable_dvfs",
	} {
		_, err := Read(strings.NewReader(body))
		if err == nil || !strings.Contains(err.Error(), `unknown field "`+field+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error naming %q", body, err, field)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// TestReadRejectsTrailingData: a configuration is one JSON value;
// anything after it is refused, not silently ignored.
func TestReadRejectsTrailingData(t *testing.T) {
	for _, body := range []string{
		`{"pp": 25} {"pp": 75}`,
		`{"pp": 25} garbage`,
		`{"pp": 25}]`,
		`{"pp": 25} "cut`,
	} {
		if _, err := Read(strings.NewReader(body)); !errors.Is(err, ErrTrailingData) {
			t.Errorf("%s: err = %v, want ErrTrailingData", body, err)
		}
	}
	if _, err := Read(strings.NewReader("{\"pp\": 25}\n\t ")); err != nil {
		t.Errorf("trailing whitespace refused: %v", err)
	}
}

// failAfter yields its bytes, then fails every later read with err.
type failAfter struct {
	data []byte
	err  error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

// TestReadReportsStreamError: a read that fails after the document is a
// stream fault, reported as itself, not mistaken for trailing data.
func TestReadReportsStreamError(t *testing.T) {
	disk := errors.New("disk gone")
	_, err := Read(&failAfter{data: []byte(`{"pp": 25}`), err: disk})
	if !errors.Is(err, disk) || errors.Is(err, ErrTrailingData) {
		t.Fatalf("err = %v, want the stream's own error", err)
	}
}

func TestValidateBounds(t *testing.T) {
	cases := []string{
		`{"pp": 101}`,
		`{"max_fan_duty": 150}`,
		`{"tmin_c": 60, "tmax_c": 50}`,
		`{"threshold_c": 90}`,
		`{"hysteresis_c": 50}`,
		`{"sample_ms": 5}`,
	}
	for _, body := range cases {
		if _, err := Read(strings.NewReader(body)); err == nil {
			t.Errorf("invalid config accepted: %s", body)
		}
	}
}

func TestLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "thermctl.json")
	body := `{"pp": 75, "max_fan_duty": 60, "threshold_c": 55}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pp != 75 || c.MaxFanDuty != 60 || c.ThresholdC != 55 {
		t.Errorf("loaded: %+v", c)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestConversions(t *testing.T) {
	c := Default()
	c.Pp = 25
	cc := c.ControllerConfig()
	if cc.Pp != 25 || cc.TminC != 38 || cc.TmaxC != 82 {
		t.Errorf("ControllerConfig: %+v", cc)
	}
	tc := c.TDVFSConfig()
	if tc.Pp != 25 || tc.ThresholdC != 51 || tc.HysteresisC != 3 {
		t.Errorf("TDVFSConfig: %+v", tc)
	}
}
