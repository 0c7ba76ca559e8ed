package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with fixed values covering every
// metric type, label shapes, and histogram bucket edges.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("sort_msgs_total", "Messages sent, by wire kind.", Label{"kind", "exchange"}).Add(24)
	r.Counter("sort_msgs_total", "Messages sent, by wire kind.", Label{"kind", "ft-exchange"}).Add(96)
	r.Counter("sort_phi_checks_total", "Constraint predicate evaluations.",
		Label{"phi", "P"}, Label{"result", "pass"}).Add(32)
	r.Counter("sort_phi_checks_total", "Constraint predicate evaluations.",
		Label{"phi", "P"}, Label{"result", "fail"}).Add(1)
	r.Gauge("run_active_nodes", "Nodes participating in the current attempt.").Set(8)
	h := r.Histogram("sort_stage_vticks", "Per-node stage cost in ticks.", []int64{1000, 10000, 100000})
	for _, v := range []int64{500, 1000, 1001, 50000, 2_000_000} {
		h.Observe(v)
	}
	return r
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run go test -run Golden -update ./internal/obs to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "metrics.prom", buf.Bytes())
}

func TestPrometheusHistogramCumulative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "# TYPE h histogram\n" +
		"h_bucket{le=\"10\"} 1\n" +
		"h_bucket{le=\"100\"} 2\n" +
		"h_bucket{le=\"+Inf\"} 3\n" +
		"h_sum 555\n" +
		"h_count 3\n"
	if buf.String() != want {
		t.Fatalf("histogram exposition:\n--- got ---\n%s--- want ---\n%s", buf.String(), want)
	}
}

// TestSnapshotValues reads a registry's values back off its exposition:
// families sorted by name, the gauge's value, and the histogram's count,
// sum and +Inf bucket.
func TestSnapshotValues(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	var fams []string
	samples := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fams = append(fams, strings.Fields(name)[0])
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		samples[line[:i]] = line[i+1:]
	}
	if len(fams) != 4 {
		t.Fatalf("families = %d, want 4", len(fams))
	}
	// Families are sorted by name: run_active_nodes first.
	if fams[0] != "run_active_nodes" || samples["run_active_nodes"] != "8" {
		t.Fatalf("unexpected first family %q value %s", fams[0], samples["run_active_nodes"])
	}
	if c, s := samples["sort_stage_vticks_count"], samples["sort_stage_vticks_sum"]; c != "5" || s != "2052501" {
		t.Fatalf("histogram count/sum = %s/%s", c, s)
	}
	if inf := samples[`sort_stage_vticks_bucket{le="+Inf"}`]; inf != "5" {
		t.Fatalf("+Inf bucket = %s", inf)
	}
}
