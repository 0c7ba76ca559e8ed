package main

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestSortsStdin(t *testing.T) {
	var out, errb bytes.Buffer
	in := strings.NewReader("10 8 3 9 4 2 7 5")
	if err := run(nil, in, &out, &errb); err != nil {
		t.Fatal(err)
	}
	want := "2\n3\n4\n5\n7\n8\n9\n10\n"
	if out.String() != want {
		t.Errorf("output = %q, want %q", out.String(), want)
	}
}

func TestSortsDescendingWithStats(t *testing.T) {
	var out, errb bytes.Buffer
	in := strings.NewReader("1 5 3")
	if err := run([]string{"-desc", "-stats"}, in, &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.String() != "5\n3\n1\n" {
		t.Errorf("output = %q", out.String())
	}
	if !strings.Contains(errb.String(), "sorted 3 keys") {
		t.Errorf("stats = %q", errb.String())
	}
}

func TestSortsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keys.txt")
	if err := os.WriteFile(path, []byte("4\n-2\n9\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	if err := run([]string{path}, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.String() != "-2\n4\n9\n" {
		t.Errorf("output = %q", out.String())
	}
}

func TestEmptyInput(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader(""), &out, &errb); err != nil {
		t.Fatal(err)
	}
	if out.String() != "" {
		t.Errorf("output = %q", out.String())
	}
}

func TestRejectsBadInput(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(nil, strings.NewReader("1 x 3"), &out, &errb); err == nil {
		t.Error("garbage key: want error")
	}
	if err := run([]string{"a", "b"}, strings.NewReader(""), &out, &errb); err == nil {
		t.Error("two files: want error")
	}
	if err := run([]string{"/nonexistent/file"}, strings.NewReader(""), &out, &errb); err == nil {
		t.Error("missing file: want error")
	}
	if err := run([]string{"-dim", "99"}, strings.NewReader("1 2"), &out, &errb); err == nil {
		t.Error("bad dim: want error")
	}
}

// TestObsListenServesItsOwnRegistry runs the command with -obs.listen
// on an ephemeral port and scrapes /metrics while it lingers after the
// sort: the sort's traffic and passed Φ checks are in the registry the
// command built and passed down through Options.Obs.
func TestObsListenServesItsOwnRegistry(t *testing.T) {
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		err := run([]string{"-obs.listen", "127.0.0.1:0", "-obs.linger", "2s"},
			strings.NewReader("10 8 3 9 4 2 7 5"), &out, pw)
		pw.Close()
		done <- err
	}()
	defer func() {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()
	// Keep stderr drained whatever this test reads of it.
	defer io.Copy(io.Discard, pr)

	var addr string
	sc := bufio.NewScanner(pr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "observability endpoints on http://"); ok {
			addr, _, _ = strings.Cut(rest, "/")
		}
		if strings.HasPrefix(line, "lingering") {
			break
		}
	}
	if addr == "" {
		t.Fatal("no endpoint address on stderr before the linger")
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := sumSeries(string(body), "sort_msgs_total", ""); n == 0 {
		t.Errorf("sort_msgs_total = 0:\n%s", body)
	}
	if n := sumSeries(string(body), "sort_phi_checks_total", `result="pass"`); n == 0 {
		t.Errorf(`sort_phi_checks_total{result="pass"} = 0:\n%s`, body)
	}
}

// sumSeries adds up the Prometheus samples of the named family whose
// label set contains label ("" for all of them).
func sumSeries(text, name, label string) float64 {
	var total float64
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series := line[:i]
		if fam, _, _ := strings.Cut(series, "{"); fam != name || !strings.Contains(series, label) {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			total += v
		}
	}
	return total
}
