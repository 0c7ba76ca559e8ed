package forensic

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// Handler serves the flight's forensic dumps over HTTP, mounted next
// to the obs /metrics endpoint:
//
//	/debug/forensic            — all reports as a JSON array
//	/debug/forensic?latest=1   — the most recent report only
//	/debug/forensic?seq=N      — report N
//	/debug/forensic?chrome=1   — Chrome trace_event rendering of the
//	                             selected report (combine with seq=N)
//
// An empty flight (no accusations yet) serves an empty array, or 404
// for latest/seq/chrome selections.
func (f *Flight) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		reports := f.Reports()
		q := req.URL.Query()

		var sel *Report
		switch {
		case q.Get("seq") != "":
			n, err := strconv.Atoi(q.Get("seq"))
			if err != nil || n < 0 || n >= len(reports) {
				http.Error(w, "forensic: no such report", http.StatusNotFound)
				return
			}
			sel = reports[n]
		case q.Get("latest") != "" || q.Get("chrome") != "":
			if len(reports) == 0 {
				http.Error(w, "forensic: no reports", http.StatusNotFound)
				return
			}
			sel = reports[len(reports)-1]
		}

		if q.Get("chrome") != "" {
			buf, err := sel.ChromeTrace()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			w.Write(buf)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if sel != nil {
			enc.Encode(sel)
			return
		}
		if reports == nil {
			reports = []*Report{}
		}
		enc.Encode(reports)
	})
}
