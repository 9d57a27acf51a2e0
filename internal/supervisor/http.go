package supervisor

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"spider/internal/campaign"
)

// decodeSpec reads a campaign spec from a POST body. Unknown fields are
// refused, so a typo in an option name bounces instead of silently
// running with the default.
func decodeSpec(r io.Reader) (campaign.Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp campaign.Spec
	err := dec.Decode(&sp)
	return sp, err
}

// Handler returns the supervisor's HTTP API:
//
//	POST /campaigns               submit a campaign spec, returns {"id": ...}
//	GET  /campaigns               list campaigns with per-run progress
//	GET  /campaigns/{id}          one campaign's status + per-run progress
//	GET  /campaigns/{id}/status   the bare status word, text/plain (script-friendly)
//	GET  /campaigns/{id}/archive  the spider-archive v1 document (409 until done)
//	POST /campaigns/{id}/cancel   stop scheduling runs (in-flight run completes)
//	GET  /metrics                 live Prometheus scrape (supervisor + campaigns)
//	GET  /healthz                 liveness probe
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.MetricsSnapshot().WritePrometheus(w)
	})
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		sp, err := decodeSpec(r.Body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad campaign spec: "+err.Error())
			return
		}
		id, err := s.Submit(sp)
		switch {
		case errors.Is(err, ErrDraining):
			writeErr(w, http.StatusServiceUnavailable, err.Error())
		case err != nil:
			writeErr(w, http.StatusBadRequest, err.Error())
		default:
			writeJSON(w, http.StatusCreated, map[string]string{"id": id})
		}
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"campaigns": s.List()})
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such campaign")
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /campaigns/{id}/status", func(w http.ResponseWriter, r *http.Request) {
		st, ok := s.Status(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such campaign")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write([]byte(st.Status + "\n"))
	})
	mux.HandleFunc("GET /campaigns/{id}/archive", func(w http.ResponseWriter, r *http.Request) {
		b, status, ok := s.ArchiveBytes(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such campaign")
			return
		}
		if b == nil {
			writeErr(w, http.StatusConflict, "campaign is "+status+", archive is served when done")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("POST /campaigns/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		status, ok := s.Cancel(r.PathValue("id"))
		if !ok {
			writeErr(w, http.StatusNotFound, "no such campaign")
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]string{"status": status})
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}
