// HTTP/JSON front end. One POST per job; admission failures map to
// status codes that distinguish "you sent garbage" (400) from "come
// back later" (429) from "the sort detected faults it could not
// recover from" (422 with the structured diagnosis) — a caller can
// build retry policy on status alone.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/obs"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
)

// ErrorBody is the JSON error envelope for non-200 responses.
type ErrorBody struct {
	// Error classifies the failure: "invalid", "overloaded", "closed",
	// "fault_detected", "recovery_exhausted", "internal".
	Error string `json:"error"`
	// Detail is the human-readable cause.
	Detail string `json:"detail"`
	// Quarantined/Accused carry the diagnosis when recovery ran out of
	// budget — which machines the evidence implicates.
	Quarantined []int `json:"quarantined,omitempty"`
	// Attempts is how many attempts ran before escalation.
	Attempts int `json:"attempts,omitempty"`
}

// classify maps a Submit error to (HTTP status, body).
func classify(err error) (int, ErrorBody) {
	var ex *recovery.ExhaustedError
	switch {
	case errors.Is(err, ErrInvalid):
		return http.StatusBadRequest, ErrorBody{Error: "invalid", Detail: err.Error()}
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests, ErrorBody{Error: "overloaded", Detail: err.Error()}
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, ErrorBody{Error: "closed", Detail: err.Error()}
	case errors.As(err, &ex):
		return http.StatusUnprocessableEntity, ErrorBody{
			Error: "recovery_exhausted", Detail: err.Error(),
			Quarantined: ex.Quarantined(), Attempts: len(ex.Attempts),
		}
	case errors.Is(err, reliablesort.ErrFaultDetected):
		return http.StatusUnprocessableEntity, ErrorBody{Error: "fault_detected", Detail: err.Error()}
	default:
		return http.StatusInternalServerError, ErrorBody{Error: "internal", Detail: err.Error()}
	}
}

// sortBodyBytesPerKey is one key's share of a POST /sort body: the
// longest int64 in JSON ("-9223372036854775808") is 20 bytes, and 4
// more leave room for a comma and whitespace. sortBodySlack covers the
// body's other fields.
const (
	sortBodyBytesPerKey = 24
	sortBodySlack       = 1 << 20
)

// Handler serves the service API:
//
//	POST /sort           one job: Request JSON in, Response JSON out
//	GET  /stats          pool/queue/outcome summary
//	GET  /healthz        liveness
//	GET  /metrics        fleet Prometheus text
//	GET  /debug/journal  fleet job-lifecycle journal
//
// A POST /sort body is read through a limit of MaxKeys × 24 bytes plus
// 1 MiB. A longer body cannot hold an admissible job, so it is refused
// with 400 invalid before it is decoded whole, as the stream lane
// bounds the key count before allocating.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	bodyLimit := int64(s.cfg.MaxKeys)*sortBodyBytesPerKey + sortBodySlack
	mux.HandleFunc("POST /sort", func(w http.ResponseWriter, r *http.Request) {
		var req Request
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, bodyLimit))
		if err := dec.Decode(&req); err != nil {
			detail := "bad JSON: " + err.Error()
			var tooLong *http.MaxBytesError
			if errors.As(err, &tooLong) {
				detail = fmt.Sprintf("body exceeds %d bytes", tooLong.Limit)
			}
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "invalid", Detail: detail})
			return
		}
		resp, err := s.Submit(req)
		if err != nil {
			status, body := classify(err)
			if status == http.StatusTooManyRequests {
				w.Header().Set("Retry-After", "1")
			}
			writeJSON(w, status, body)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.Handle("GET /metrics", obs.Handler(s.reg))
	mux.Handle("GET /debug/journal", s.obs.J)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
