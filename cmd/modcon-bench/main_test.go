package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E99"}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if err := run([]string{"-run", "E5", "-trials", "1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run([]string{"-run", "E9", "-trials", "2", "-markdown"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("expected flag error")
	}
}

// TestCountFlagsRejected: a count flag that no mode can honour is an
// error naming the flag, before anything runs or is written. Unchecked, a
// zero -scaling-trials divides by zero, a negative one writes a BENCH
// artifact with negative rates, and negative -trials and -workers run at
// the defaults while the manifest records the negative values.
func TestCountFlagsRejected(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	for _, tc := range []struct {
		name string
		args []string
		flag string // the flag the error must name
	}{
		{"zero scaling trials", []string{"-bench-scaling", "-scaling-trials", "0", "-scaling-workers", "1"}, "-scaling-trials"},
		{"negative scaling trials", []string{"-bench-scaling", "-scaling-trials", "-5", "-scaling-workers", "1"}, "-scaling-trials"},
		{"zero scaling workers", []string{"-bench-scaling", "-scaling-trials", "4", "-scaling-workers", "1,0"}, "-scaling-workers"},
		{"zero bench n", []string{"-bench-core", "-bench-n", "0"}, "-bench-n"},
		{"negative trials", []string{"-run", "E6", "-trials", "-3", "-json"}, "-trials"},
		{"negative workers", []string{"-run", "E6", "-workers", "-2", "-json"}, "-workers"},
		{"negative trials with shards", []string{"-shard-run", "0/1", "-trials", "-3"}, "-trials"},
		{"negative search trials", []string{"-search", "-search-trials", "-1"}, "-search-trials"},
		{"negative search budget", []string{"-search", "-search-budget", "-1"}, "-search-budget"},
	} {
		printed, err := capture(t, func() error { return run(append(tc.args, "-bench-out", out)) })
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.flag)
		}
		if printed != "" {
			t.Errorf("%s: printed %q", tc.name, printed)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Fatalf("%s: wrote %s", tc.name, out)
		}
	}
}

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	runErr := fn()
	w.Close()
	buf := make([]byte, 1<<20)
	n, _ := r.Read(buf)
	return string(buf[:n]), runErr
}

func TestRunJSON(t *testing.T) {
	out, err := capture(t, func() error {
		return run([]string{"-run", "E9", "-trials", "2", "-seed", "42", "-json"})
	})
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Manifest struct {
			Tool       string            `json:"tool"`
			Seed       uint64            `json:"seed"`
			Config     map[string]string `json:"config"`
			GoVersion  string            `json:"goVersion"`
			GOMAXPROCS int               `json:"gomaxprocs"`
		} `json:"manifest"`
		Tables []json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Fatalf("json output does not decode: %v\n%s", err, out)
	}
	m := report.Manifest
	if m.Tool != "modcon-bench" || m.Seed != 42 || m.GoVersion == "" || m.GOMAXPROCS < 1 {
		t.Fatalf("bad manifest: %+v", m)
	}
	if m.Config["run"] != "E9" || m.Config["trials"] != "2" {
		t.Fatalf("manifest config echo missing flags: %+v", m.Config)
	}
	if len(report.Tables) != 1 {
		t.Fatalf("got %d tables, want 1", len(report.Tables))
	}
	if !strings.Contains(out, `"ID": "E9"`) || !strings.Contains(out, `"Rows"`) {
		t.Fatalf("json output missing table fields:\n%s", out)
	}
}

func TestRunWorkersDeterministic(t *testing.T) {
	// The manifest legitimately differs across worker counts (it echoes
	// -workers), so determinism is pinned on the tables alone.
	var tables []string
	for _, w := range []string{"1", "4"} {
		out, err := capture(t, func() error {
			return run([]string{"-run", "E9", "-trials", "4", "-seed", "3", "-workers", w, "-json"})
		})
		if err != nil {
			t.Fatal(err)
		}
		var report struct {
			Tables json.RawMessage `json:"tables"`
		}
		if err := json.Unmarshal([]byte(out), &report); err != nil {
			t.Fatalf("json output does not decode: %v\n%s", err, out)
		}
		tables = append(tables, string(report.Tables))
	}
	if tables[0] != tables[1] {
		t.Fatalf("-workers changed results:\n%s\n---\n%s", tables[0], tables[1])
	}
}

func TestRunBenchScaling(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scaling.json")
	if err := run([]string{"-bench-scaling", "-scaling-trials", "16", "-scaling-workers", "1,2", "-bench-out", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Scaling struct {
			Workload            string `json:"workload"`
			TrialsPerCell       int    `json:"trialsPerCell"`
			IdenticalAggregates bool   `json:"identicalAggregates"`
			Results             []struct {
				Workers int    `json:"workers"`
				Digest  string `json:"digest"`
			} `json:"results"`
		} `json:"scaling"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("scaling artifact does not decode: %v\n%s", err, data)
	}
	s := report.Scaling
	if s.Workload != "consensus-sweep" || s.TrialsPerCell != 16 || len(s.Results) != 2 {
		t.Fatalf("bad scaling section: %+v", s)
	}
	if !s.IdenticalAggregates || s.Results[0].Digest != s.Results[1].Digest {
		t.Fatalf("aggregates diverged across worker counts: %+v", s)
	}
	if s.Results[0].Workers != 1 || s.Results[1].Workers != 2 {
		t.Fatalf("worker counts not honored: %+v", s)
	}
}

func TestRunProgressAndProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	_, err := capture(t, func() error {
		return run([]string{"-run", "E9", "-trials", "2",
			"-progress", "1ms", "-cpuprofile", cpu, "-memprofile", mem, "-trace", tr})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

func TestRunTimeoutCancels(t *testing.T) {
	_, err := capture(t, func() error {
		return run([]string{"-run", "E1", "-trials", "400", "-timeout", "1ns"})
	})
	if err == nil || !strings.Contains(err.Error(), "cancelled") {
		t.Fatalf("err = %v, want cancellation", err)
	}
}
