// Command reliablesort sorts integers from a file or stdin with the
// fault-tolerant distributed bitonic sort — the whole pipeline a
// downstream user gets: automatic cube sizing, padding, the S_FT block
// sort with its constraint predicates, and end-to-end verification.
//
//	echo '10 8 3 9 4 2 7 5' | reliablesort
//	reliablesort -desc -dim 3 numbers.txt
//	reliablesort -stats numbers.txt
//	reliablesort -obs.listen localhost:9141 -obs.linger 1m numbers.txt
//
// Input is whitespace-separated 64-bit integers; output is one key per
// line in the requested order. With -obs.listen the process serves the
// observability endpoints (/metrics Prometheus text, /debug/forensic)
// while sorting, and -obs.linger keeps it alive after
// the sort so the series — and any forensic dumps a detection
// produced — can be scraped.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/reliablesort"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reliablesort:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("reliablesort", flag.ContinueOnError)
	desc := fs.Bool("desc", false, "sort descending")
	dim := fs.Int("dim", 0, "force hypercube dimension (0 = automatic)")
	stats := fs.Bool("stats", false, "print run statistics to stderr")
	obsListen := fs.String("obs.listen", "", "serve /metrics and /debug/forensic on this address (e.g. localhost:9141)")
	obsLinger := fs.Duration("obs.linger", 0, "keep serving the observability endpoints this long after the sort")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var observer *obs.Observer
	var flight *forensic.Flight
	if *obsListen != "" {
		reg := obs.NewRegistry()
		observer = &obs.Observer{M: obs.NewMetrics(reg)}
		flight = forensic.New(0)
		// One mux for the whole observability surface: the registry's
		// /metrics plus the flight's /debug/forensic.
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/debug/forensic", flight.Handler())
		ln, err := net.Listen("tcp", *obsListen)
		if err != nil {
			return fmt.Errorf("obs.listen: %w", err)
		}
		srv := &http.Server{Handler: mux}
		go srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(stderr, "observability endpoints on http://%s/metrics and /debug/forensic\n", ln.Addr())
	}

	in := stdin
	if fs.NArg() > 1 {
		return fmt.Errorf("at most one input file, got %d", fs.NArg())
	}
	if fs.NArg() == 1 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	keys, err := readKeys(in)
	if err != nil {
		return err
	}

	out, st, err := reliablesort.Sort(keys, reliablesort.Options{
		Descending: *desc,
		Dim:        *dim,
		Obs:        observer,
		Flight:     flight,
	})
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	for _, k := range out {
		fmt.Fprintln(w, k)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(stderr, "sorted %d keys on %d nodes × %d keys/node (%d padded); %d vticks, %d msgs, %d bytes\n",
			len(keys), st.Nodes, st.BlockLen, st.Padded, st.Makespan, st.Msgs, st.Bytes)
	}
	if *obsListen != "" && *obsLinger > 0 {
		fmt.Fprintf(stderr, "lingering %v for scrapes\n", *obsLinger)
		time.Sleep(*obsLinger)
	}
	return nil
}

func readKeys(r io.Reader) ([]int64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sc.Split(bufio.ScanWords)
	var keys []int64
	for sc.Scan() {
		v, err := strconv.ParseInt(sc.Text(), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q: %w", sc.Text(), err)
		}
		keys = append(keys, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return keys, nil
}
