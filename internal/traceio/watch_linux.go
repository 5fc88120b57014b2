package traceio

import (
	"os"
	"syscall"
)

// watch sets up an inotify watch for writes to path. The instance is
// non-blocking, so os.NewFile hands it to the runtime poller: the
// watcher's read parks without holding a thread, and Close ends it.
func watch(path string) (*watcher, error) {
	fd, err := syscall.InotifyInit1(syscall.IN_NONBLOCK | syscall.IN_CLOEXEC)
	if err != nil {
		return nil, os.NewSyscallError("inotify_init1", err)
	}
	if _, err := syscall.InotifyAddWatch(fd, path, syscall.IN_MODIFY); err != nil {
		syscall.Close(fd)
		return nil, os.NewSyscallError("inotify_add_watch", err)
	}
	return newWatcher(os.NewFile(uintptr(fd), "inotify:"+path)), nil
}
