package obs

import (
	"io"
	"log/slog"
)

// NewLogger returns a key=value text slog.Logger writing to w (typically
// os.Stderr), tagged with the process role ("coordinator", "worker",
// "node"). The field conventions used across codsim: sweep, job, worker,
// attempt, seq, span, phase.
func NewLogger(w io.Writer, role string) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelInfo})
	return slog.New(h).With("role", role)
}

// Nop returns a logger that discards everything — the default when no
// telemetry plane is wired.
func Nop() *slog.Logger {
	return slog.New(slog.DiscardHandler)
}
