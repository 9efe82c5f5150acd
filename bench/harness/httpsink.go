package harness

import "net/http"

// Sink is a reusable http.ResponseWriter that keeps only what the
// benchmark checks — status code and body size — so that calling a
// handler in a timed loop costs no recorder allocation.
type Sink struct {
	hdr   http.Header
	Code  int
	Bytes int
}

// NewSink returns an empty sink.
func NewSink() *Sink { return &Sink{hdr: make(http.Header)} }

// Reset prepares the sink for the next request.
func (s *Sink) Reset() {
	clear(s.hdr)
	s.Code = 0
	s.Bytes = 0
}

// Header implements http.ResponseWriter.
func (s *Sink) Header() http.Header { return s.hdr }

// WriteHeader implements http.ResponseWriter.
func (s *Sink) WriteHeader(code int) {
	if s.Code == 0 {
		s.Code = code
	}
}

// Write implements http.ResponseWriter.
func (s *Sink) Write(p []byte) (int, error) {
	if s.Code == 0 {
		s.Code = http.StatusOK
	}
	s.Bytes += len(p)
	return len(p), nil
}

// OK reports whether the response was a 2xx.
func (s *Sink) OK() bool { return s.Code >= 200 && s.Code < 300 }
