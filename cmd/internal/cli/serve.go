package cli

import (
	"context"
	"errors"
	"log"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"syscall"
	"time"

	"graphdiam/internal/obs"
)

// ServeDebug starts the private debug listener on addr — net/http/pprof
// plus a mirror of reg's /metrics — and returns a function that closes
// it. An empty addr disables the listener. It is deliberately a separate
// server on a separate address: pprof handlers expose heap contents and
// must never ride the public mux.
func ServeDebug(addr string, reg *obs.Registry, readHeaderTimeout time.Duration, logger *log.Logger) (closeFn func()) {
	if addr == "" {
		return func() {}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: readHeaderTimeout}
	go func() {
		logger.Printf("debug listener (pprof + /metrics) on %s", addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("debug listener: %v", err)
		}
	}()
	return func() { srv.Close() }
}

// Serve runs srv until SIGINT or SIGTERM arrives or drained fires (a nil
// channel never does), then shuts it down gracefully, giving in-flight
// requests up to drainTimeout. banner is logged as the listener starts.
// A listener failure is fatal.
func Serve(srv *http.Server, drainTimeout time.Duration, drained <-chan struct{}, logger *log.Logger, banner string) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Print(banner)
		errCh <- srv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		logger.Fatalf("serve: %v", err)
	case <-ctx.Done():
	case <-drained:
		logger.Printf("drain complete; beginning graceful exit")
	}

	logger.Printf("shutting down, draining for up to %v", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("shutdown: %v", err)
	}
	logger.Printf("bye")
}
