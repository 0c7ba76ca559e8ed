package main

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"

	"repro/internal/server"
)

// TestLatencySplitByClass drives an in-process server and checks that
// the report keeps honest and injected jobs' latencies apart and that
// the two classes account for every verified job.
func TestLatencySplitByClass(t *testing.T) {
	srv := server.New(server.Config{
		Concurrency: 2,
		RecvTimeout: time.Hour,
		Spares:      2,
		AllowChaos:  true,
		Sleep:       func(time.Duration) {},
	})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := srv.NewStreamServer(ln)
	go ss.Serve()
	defer ss.Close()

	var out, errOut bytes.Buffer
	args := []string{"-addr", ln.Addr().String(), "-jobs", "40", "-conc", "2",
		"-sizes", "16,64", "-fault.rate", "0.5", "-seed", "3"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v\n%s", err, errOut.String())
	}
	var rep Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report: %v\n%s", err, out.String())
	}
	h, in := rep.HonestLatency, rep.InjectedLatency
	if h.Verified == 0 || in.Verified == 0 {
		t.Fatalf("want verified jobs of both classes: %+v", rep)
	}
	if h.Verified+in.Verified != rep.Verified {
		t.Errorf("classes hold %d+%d verified jobs, report says %d", h.Verified, in.Verified, rep.Verified)
	}
	for _, l := range []Latency{h, in} {
		if l.MsP50 <= 0 || l.MsP50 > l.MsP99 {
			t.Errorf("implausible percentiles: %+v", l)
		}
	}
}
