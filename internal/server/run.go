package server

import (
	"context"
	"errors"
	"net"
	"net/http"
)

// Run serves on addr until ctx is cancelled, then drains in-flight
// requests gracefully (bounded by Options.ShutdownTimeout) and returns
// nil on a clean shutdown. If ready is non-nil it receives the bound
// listener address once the socket is open (useful with ":0").
func (s *Server) Run(ctx context.Context, addr string, ready chan<- net.Addr) error {
	srv := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: s.opts.ReadHeaderTimeout,
		ReadTimeout:       s.opts.ReadTimeout,
		WriteTimeout:      s.opts.WriteTimeout,
		IdleTimeout:       s.opts.IdleTimeout,
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), s.opts.ShutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		// Drain window expired: force-close the stragglers.
		_ = srv.Close()
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
