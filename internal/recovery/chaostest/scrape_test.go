package chaostest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/reliablesort"
)

// TestConcurrentScrapesDuringChaos pins that the observability
// endpoints — /metrics and /debug/forensic — can be scraped
// concurrently while a supervised chaos run is actively appending to
// the metrics and the flight recorder. Run under -race this is the
// data-race gate for the sort's read path: registry exposition and
// forensic ring snapshots race against node goroutines
// mid-accusation. The journal's read path races the server's job spans
// in internal/server's TestJournalScrapesDuringSubmits.
func TestConcurrentScrapesDuringChaos(t *testing.T) {
	reg := obs.NewRegistry()
	o := &obs.Observer{M: obs.NewMetrics(reg)}
	flight := forensic.New(0)

	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Handler(reg))
	mux.Handle("/debug/forensic", flight.Handler())
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// The workload: persistent lying node under active supervision,
	// repeated so the scrapers overlap live protocol activity.
	sc := Scenario{
		Seed:        42,
		Dim:         3,
		BlockLen:    2,
		Strategy:    fault.KeyLie,
		Site:        5,
		Persistent:  true,
		Spares:      1,
		MaxAttempts: 6,
	}
	keys := Workload(sc)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rounds := 3
		if testing.Short() {
			rounds = 1
		}
		for i := 0; i < rounds; i++ {
			opts := reliablesort.Options{
				Dim:         sc.Dim,
				MaxAttempts: sc.MaxAttempts,
				Spares:      sc.Spares,
				Sleep:       func(time.Duration) {},
				Seed:        sc.Seed | 1,
				Inject:      ScenarioInjector(sc),
				Obs:         o,
				Flight:      flight,
			}
			if _, _, err := reliablesort.Sort(keys, opts); err != nil {
				t.Errorf("supervised run %d: %v", i, err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	paths := []string{"/metrics", "/debug/forensic", "/debug/forensic?latest=1"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, p := range paths {
					resp, err := http.Get(srv.URL + p)
					if err != nil {
						t.Errorf("GET %s: %v", p, err)
						return
					}
					// latest=1 404s until the first accusation lands.
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("GET %s: status %d", p, resp.StatusCode)
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	<-done
	wg.Wait()

	// The run was a persistent detected fault: the flight must hold the
	// accusations the scrapers were reading mid-run.
	if len(flight.Reports()) == 0 {
		t.Error("chaos run produced no forensic reports")
	}
}
