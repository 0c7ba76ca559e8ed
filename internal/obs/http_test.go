package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerMetricsText(t *testing.T) {
	srv := httptest.NewServer(Handler(goldenRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"# TYPE sort_msgs_total counter",
		`sort_msgs_total{kind="exchange"} 24`,
		`sort_phi_checks_total{phi="P",result="pass"} 32`,
		`sort_stage_vticks_bucket{le="+Inf"} 5`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestHandlerJournal(t *testing.T) {
	j := NewJournal(8)
	j.Append(Event{Kind: EvSpanEnd, Label: "job", Node: 3, Pass: true})
	srv := httptest.NewServer(j)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/journal")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Total   uint64  `json:"total"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Total != 1 || len(got.Events) != 1 {
		t.Fatalf("journal response %+v", got)
	}
	if got.Events[0].Kind != EvSpanEnd || got.Events[0].Label != "job" || !got.Events[0].Pass {
		t.Fatalf("event %+v", got.Events[0])
	}
}
