// Command sortserver runs the multi-tenant sort-as-a-service daemon:
// a long-running process accepting concurrent sort jobs over HTTP/JSON
// and (optionally) the length-prefixed streaming wire protocol, running
// each through the fault-tolerant distributed sort with AutoRecover and
// spares on a pre-warmed pooled transport, and returning verified
// results with per-job statistics.
//
//	sortserver -listen localhost:9199
//	sortserver -listen :0 -stream.listen :0 -transport tcpnet -chaos
//	sortserver -tenants 'batch=1,interactive=4' -concurrency 8 -warm 3
//
// Endpoints on -listen:
//
//	POST /sort           {"tenant","keys","descending","dim","inject"}
//	GET  /stats          pool/queue/outcome summary
//	GET  /metrics        fleet Prometheus text (or ?json=1)
//	GET  /debug/journal  job-lifecycle journal
//	GET  /healthz        liveness
//
// The process drains gracefully on SIGINT/SIGTERM: admission stops,
// queued jobs finish, the transport pool closes, then it exits.
package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"flag"
	"repro/internal/reliablesort"
	"repro/internal/server"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sortserver:", err)
		os.Exit(1)
	}
}

// parseWeights parses "a=3,b=1" tenant weight lists.
func parseWeights(s string) (map[string]int, error) {
	if s == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("tenant weight %q: want name=weight", part)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("tenant weight %q: positive integer required", part)
		}
		out[name] = w
	}
	return out, nil
}

// newNetFor returns the transport constructor for -transport.
func newNetFor(name string) (func(cfg reliablesort.NetConfig) (transport.Network, error), error) {
	switch name {
	case "simnet":
		return reliablesort.NewSimnet, nil
	case "tcpnet":
		return func(cfg reliablesort.NetConfig) (transport.Network, error) {
			return tcpnet.New(tcpnet.Config{
				Dim: cfg.Dim, Spares: cfg.Spares, RecvTimeout: cfg.RecvTimeout,
				Obs: cfg.Obs, Flight: cfg.Flight,
			})
		}, nil
	}
	return nil, fmt.Errorf("unknown transport %q (want simnet or tcpnet)", name)
}

// run is the testable entry point. ready, when non-nil, receives the
// bound HTTP and stream addresses ("" when disabled) once the server
// is accepting; tests use it with ":0" listeners.
func run(args []string, stdout, stderr io.Writer, ready chan<- [2]string) error {
	fs := flag.NewFlagSet("sortserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	listen := fs.String("listen", "localhost:9199", "HTTP listen address")
	streamListen := fs.String("stream.listen", "", "stream-protocol listen address (empty = disabled)")
	transportName := fs.String("transport", "simnet", "transport backing the cubes: simnet or tcpnet")
	concurrency := fs.Int("concurrency", 4, "jobs sorting at once")
	queueDepth := fs.Int("queue.depth", 64, "per-tenant queue bound (beyond it: 429)")
	tenants := fs.String("tenants", "", "tenant dispatch weights, e.g. 'batch=1,interactive=4'")
	maxKeys := fs.Int("max.keys", 1<<20, "per-job key limit")
	spares := fs.Int("spares", 2, "spare nodes per job for recovery substitution")
	maxAttempts := fs.Int("max.attempts", 0, "recovery attempt budget per job (0 = default)")
	poolIdle := fs.Int("pool.idle", 4, "warm networks kept per cube geometry")
	warm := fs.Int("warm", 0, "pre-build this many pooled networks of -warm.dim before serving")
	warmDim := fs.Int("warm.dim", 2, "cube dimension to pre-warm")
	chaos := fs.Bool("chaos", false, "accept fault-injection requests (load generators, chaos tests)")
	noRecover := fs.Bool("no.recover", false, "disable AutoRecover: fail-stop jobs on first detected fault")
	recvTimeout := fs.Duration("recv.timeout", 5*time.Second, "absence-detection timeout per attempt")
	if err := fs.Parse(args); err != nil {
		return err
	}
	weights, err := parseWeights(*tenants)
	if err != nil {
		return err
	}
	newNet, err := newNetFor(*transportName)
	if err != nil {
		return err
	}

	s := server.New(server.Config{
		NewNetwork:      newNet,
		Concurrency:     *concurrency,
		QueueDepth:      *queueDepth,
		Weights:         weights,
		MaxKeys:         *maxKeys,
		RecvTimeout:     *recvTimeout,
		DisableRecovery: *noRecover,
		MaxAttempts:     *maxAttempts,
		Spares:          *spares,
		PoolIdle:        *poolIdle,
		AllowChaos:      *chaos,
	})
	if *warm > 0 {
		if err := s.Warm(*warmDim, *warm); err != nil {
			return fmt.Errorf("warm: %w", err)
		}
	}

	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(httpLn)
	fmt.Fprintf(stderr, "sortserver: HTTP on http://%s (transport %s, concurrency %d)\n",
		httpLn.Addr(), *transportName, *concurrency)

	var ss *server.StreamServer
	streamAddr := ""
	if *streamListen != "" {
		streamLn, err := net.Listen("tcp", *streamListen)
		if err != nil {
			return fmt.Errorf("stream.listen: %w", err)
		}
		ss = s.NewStreamServer(streamLn)
		go ss.Serve()
		streamAddr = streamLn.Addr().String()
		fmt.Fprintf(stderr, "sortserver: stream protocol on %s\n", streamAddr)
	}
	if ready != nil {
		ready <- [2]string{httpLn.Addr().String(), streamAddr}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(stderr, "sortserver: %v — draining\n", got)

	httpSrv.Close()
	if ss != nil {
		ss.Close()
	}
	s.Close()
	st := s.Stats()
	fmt.Fprintf(stdout, "sortserver: drained: %d submitted, %d verified, %d fault-stopped, %d exhausted, %d rejected; pool built %d reused %d discarded %d\n",
		st.Submitted, st.Verified, st.Faulted, st.Exhausted, st.Rejected,
		st.Pool.Built, st.Pool.Reused, st.Pool.Discarded)
	return nil
}
