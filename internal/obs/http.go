package obs

import (
	"encoding/json"
	"net"
	"net/http"
)

// Handler serves a registry's metrics:
//
//	GET /metrics         Prometheus text exposition
//	GET /metrics?json=1  JSON snapshot of the same registry
//
// A nil registry serves an empty document.
func Handler(reg *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("json") != "" {
			w.Header().Set("Content-Type", "application/json")
			if reg != nil {
				reg.WriteJSON(w)
			} else {
				w.Write([]byte("[]\n"))
			}
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if reg != nil {
			reg.WritePrometheus(w)
		}
	})
	return mux
}

// ServeHTTP serves the retained events, oldest first, as JSON with
// the journal's total and dropped counts; sortserver mounts it at
// /debug/journal.
func (j *Journal) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := struct {
		Total   uint64  `json:"total"`
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{Total: j.Total(), Dropped: j.Dropped(), Events: j.Events()}
	if resp.Events == nil {
		resp.Events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// Serve listens on addr (e.g. "localhost:9141" or ":0") and serves
// Handler(reg) in a background goroutine. It returns the bound
// address — useful with ":0" — or an error if the listen fails. The
// listener runs until the process exits; there is deliberately no
// shutdown plumbing, because the endpoint exists to outlive the run it
// observes.
func Serve(addr string, reg *Registry) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln)
	return ln.Addr().String(), nil
}
