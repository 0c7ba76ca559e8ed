package server

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

func TestHTTPSortEndpoint(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(Request{Tenant: "web", Keys: []int64{5, 1, 4, 2, 3, 9, 7, 0}, Dim: 2})
	resp, err := http.Post(ts.URL+"/sort", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	assertVerified(t, []int64{5, 1, 4, 2, 3, 9, 7, 0}, &out, false)
	if out.Tenant != "web" || out.JobID == 0 || out.Stats.Attempts < 1 {
		t.Errorf("response metadata: %+v", out)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	cfg := testConfig()
	cfg.AllowChaos = false
	s := New(cfg)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, ErrorBody) {
		resp, err := http.Post(ts.URL+"/sort", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb ErrorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		return resp.StatusCode, eb
	}

	if code, eb := post("{not json"); code != http.StatusBadRequest || eb.Error != "invalid" {
		t.Errorf("bad JSON: %d %+v", code, eb)
	}
	if code, eb := post(`{"keys":[]}`); code != http.StatusBadRequest || eb.Error != "invalid" {
		t.Errorf("empty keys: %d %+v", code, eb)
	}
	if code, eb := post(`{"keys":[1,2],"inject":{"class":"message","strategy":"key-lie"}}`); code != http.StatusBadRequest || eb.Error != "invalid" {
		t.Errorf("chaos on non-chaos server: %d %+v", code, eb)
	}
}

func TestHTTPObservabilityEndpoints(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(Request{Keys: []int64{3, 1, 2, 4, 9, 5, 7, 6}, Dim: 2}); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	// The job's own counters reach the fleet registry too: its
	// traffic and its one supervised attempt.
	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "server_jobs_verified_total 1") ||
		!strings.Contains(body, "server_pool_networks_built_total") ||
		!regexp.MustCompile(`(?m)^sort_msgs_total\{kind="[a-z-]+"\} [1-9]`).MatchString(body) ||
		!strings.Contains(body, "\nrecovery_attempts_total 1\n") {
		t.Errorf("/metrics: %d\n%s", code, body)
	}
	if code, body := get("/debug/journal"); code != http.StatusOK || !strings.Contains(body, `"job"`) {
		t.Errorf("/debug/journal: %d\n%s", code, body)
	}
	if code, body := get("/stats"); code != http.StatusOK || !strings.Contains(body, `"jobs_verified":1`) {
		t.Errorf("/stats: %d\n%s", code, body)
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: %d", code)
	}
}

func TestStreamProtocolRoundTrip(t *testing.T) {
	s := New(testConfig())
	defer s.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ss := s.NewStreamServer(ln)
	go ss.Serve()
	defer ss.Close()

	c, err := DialStream(ss.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Several jobs back to back on one connection, including a
	// descending one and a fault-injected one.
	keys := []int64{42, -7, 19, 3, 88, 0, -1, 55, 6, 2, 71, -30, 14, 9, 27, 100}
	for i := 0; i < 3; i++ {
		resp, eb, err := c.Do(Request{Tenant: "stream", Keys: keys, Descending: i == 1, Dim: 2,
			Inject: func() *ChaosSpec {
				if i == 2 {
					return &ChaosSpec{Class: "comparison", Node: 1, Mode: "cmp-persistent", Rate: 1, Seed: 5}
				}
				return nil
			}()})
		if err != nil {
			t.Fatalf("job %d: transport: %v", i, err)
		}
		if eb != nil {
			// Structured failure acceptable for the injected job only.
			if i != 2 {
				t.Fatalf("job %d: unexpected error body %+v", i, eb)
			}
			continue
		}
		assertVerified(t, keys, resp, i == 1)
	}

	// A malformed request (empty keys) gets a structured invalid frame,
	// and the connection stays usable.
	_, eb, err := c.Do(Request{Tenant: "stream"})
	if err != nil {
		t.Fatal(err)
	}
	if eb == nil || eb.Error != "invalid" {
		t.Fatalf("empty keys: %+v", eb)
	}
	resp, eb, err := c.Do(Request{Tenant: "stream", Keys: []int64{2, 1}, Dim: 1})
	if err != nil || eb != nil {
		t.Fatalf("post-error job: %v %+v", err, eb)
	}
	assertVerified(t, []int64{2, 1}, resp, false)
}
