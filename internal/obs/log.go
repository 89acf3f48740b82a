package obs

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger returns a structured logger that writes one line per
// record at or above level (debug, info, warn or error) to w, encoded
// as logfmt or json. Each record opens with its time under ts, in
// RFC 3339 UTC with nanoseconds, then a lowercase level and msg.
func NewLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv, ReplaceAttr: recordFormat}
	switch strings.ToLower(format) {
	case "logfmt":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want logfmt or json)", format)
}

// recordFormat rewrites slog's built-in time and level attributes into
// the repository's record format.
func recordFormat(groups []string, a slog.Attr) slog.Attr {
	if len(groups) > 0 {
		return a
	}
	switch {
	case a.Key == slog.TimeKey && a.Value.Kind() == slog.KindTime:
		return slog.String("ts", a.Value.Time().UTC().Format(time.RFC3339Nano))
	case a.Key == slog.LevelKey:
		if lv, ok := a.Value.Any().(slog.Level); ok {
			return slog.String(slog.LevelKey, strings.ToLower(lv.String()))
		}
	}
	return a
}
