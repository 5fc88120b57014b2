//go:build !linux

package traceio

import "errors"

// watch has no file watch to offer outside Linux: a follower polls.
func watch(string) (*watcher, error) {
	return nil, errors.New("traceio: file watch is implemented on Linux only")
}
