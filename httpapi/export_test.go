package httpapi

import "time"

// WithClock injects the time source used for TTL eviction.
func WithClock(now func() time.Time) Option {
	return func(s *Server) { s.now = now }
}

// WithSlowQueryOutput redirects slow-query dumps.
func WithSlowQueryOutput(f func(format string, v ...any)) Option {
	return func(s *Server) { s.slowf = f }
}
