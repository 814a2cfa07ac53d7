package service

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"sort"
	"time"

	"gsnp/internal/journal"
	"gsnp/internal/sched"
)

// maxBodyBytes caps POST /jobs bodies: inline inputs are whole chromosomes.
const maxBodyBytes = 256 << 20

// streamWriteTimeout bounds the write of one batch of stream records. A
// subscriber that stops reading for this long is shed — its handler
// returns and its connection closes — so a stalled client cannot hold a
// goroutine and a socket for the life of the process. The job itself never
// depends on its subscribers.
const streamWriteTimeout = 30 * time.Second

// Handler returns the service's HTTP API:
//
//	POST   /jobs              submit a job (JobSpec body) -> 202 + JobStatus
//	GET    /jobs              list job summaries
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/stream  NDJSON stream of per-chromosome results as
//	                          they complete, terminated by a Final record;
//	                          attaches late without losing records
//	DELETE /jobs/{id}         cancel the job -> 202 + JobStatus
//	GET    /healthz           liveness + drain state + cache occupancy
//	GET    /statz             serving counters: cache hits/misses/
//	                          evictions, byte occupancy, single-flight
//	                          joins
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /statz", s.handleStatz)
	return mux
}

// writeJSON writes v as the response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// apiError is the JSON error document.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		// Only an oversized body is too large; any other read error (a
		// client gone mid-upload) is a bad request.
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	spec, err := ParseJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	js, err := s.submit(spec)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrDraining) || errors.Is(err, sched.ErrPoolClosed) || errors.Is(err, journal.ErrClosed):
			code = http.StatusServiceUnavailable
			w.Header().Set("Retry-After", retryAfter)
		case errors.Is(err, ErrQueueFull):
			// Admission backpressure: the queue bound is hit, the request
			// itself was fine — tell the client when to come back.
			code = http.StatusTooManyRequests
			w.Header().Set("Retry-After", retryAfter)
		case errors.Is(err, ErrJournal) || errors.Is(err, ErrSpool):
			// The job could not be made durable, or its inputs could not
			// be written: the server's disk failed, not the request, and
			// the server itself keeps serving.
			code = http.StatusInternalServerError
		}
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusAccepted, js.status())
}

// retryAfter is the Retry-After header value (seconds) sent with 503
// (draining) and 429 (queue full) responses: both conditions clear on the
// order of job completions, not instantly, so clients should pause rather
// than hammer.
const retryAfter = "1"

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *jobState {
	id := r.PathValue("id")
	s.mu.Lock()
	js := s.jobs[id]
	s.mu.Unlock()
	if js == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "no such job " + id})
	}
	return js
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if js := s.lookup(w, r); js != nil {
		writeJSON(w, http.StatusOK, js.status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	all := make([]*jobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		//gsnplint:ignore determinism the listing is sorted by Created below; status() must run outside s.mu, so the sort happens on the derived list
		all = append(all, js)
	}
	s.mu.Unlock()
	list := make([]JobStatus, 0, len(all))
	for _, js := range all {
		list = append(list, js.status())
	}
	sort.Slice(list, func(i, j int) bool { return list[i].Created.Before(list[j].Created) })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": list})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(w, r)
	if js == nil {
		return
	}
	s.cancel(js)
	writeJSON(w, http.StatusAccepted, js.status())
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	st := s.Statz()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "draining": st.Draining, "jobs": st.Jobs,
		"cache_enabled": st.CacheEnabled, "cache_bytes": st.Cache.Bytes,
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Statz())
}

// handleStream replays the job's stream records from the beginning, then
// follows live completions until the Final record. Every connected client
// gets the full record sequence regardless of when it attached, and a
// client disconnect or stall never affects the job (its sources feed the
// server's log, not the response writer).
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	js := s.lookup(w, r)
	if js == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	lw := newLineWriter(w)
	// The error is the stream's end either way: the Final record went out,
	// or the client went away or stalled.
	_ = js.followLog(r.Context(), func(recs []logRecord) error {
		// A writer without deadlines (a test recorder) is merely never shed.
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		for i := range recs {
			if err := lw.write(&recs[i]); err != nil {
				return err
			}
		}
		if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
		return nil
	})
}
