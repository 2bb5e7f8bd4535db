package main

import (
	"io"
	"log/slog"
	"testing"

	"repro/internal/serve"
)

// TestSmoke runs the -selftest smoke through the binary's own handler,
// request logging and its flush-forwarding writer included.
func TestSmoke(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := smoke(newHandler(logger, serve.New(serve.Config{PackSeed: 1}))); err != nil {
		t.Fatal(err)
	}
}
