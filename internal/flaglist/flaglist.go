// Package flaglist parses the comma-separated list flags the commands
// share, such as sortbench's -dims or faultcoverage's -rates.
package flaglist

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse parses a comma-separated list of numbers. Spaces around an item
// are trimmed and empty items skipped; an item that does not parse as a
// T, or a list with no items, is an error. Range checks are the
// caller's.
func Parse[T int | int64 | float64](s string) ([]T, error) {
	var out []T
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var v T
		var err error
		switch p := any(&v).(type) {
		case *int:
			*p, err = strconv.Atoi(part)
		case *int64:
			*p, err = strconv.ParseInt(part, 10, 64)
		case *float64:
			*p, err = strconv.ParseFloat(part, 64)
		}
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no values in %q", s)
	}
	return out, nil
}
