package service

import (
	"errors"
	"sync"

	"netart/internal/resilience"
)

// ErrQueueFull is returned by submit when the bounded queue cannot
// accept another task; the HTTP layer maps it to 429 Too Many Requests
// (load shedding instead of unbounded buffering).
var ErrQueueFull = errors.New("service: worker queue full")

// errPoolClosed is returned for submissions after Close.
var errPoolClosed = errors.New("service: pool closed")

// workerPool is a fixed set of workers draining a bounded queue.
// Capping the workers keeps heavy generation requests from starving
// the scheduler; capping the queue converts overload into fast 429s.
type workerPool struct {
	queue chan func()
	wg    sync.WaitGroup

	mu     sync.Mutex
	closed bool

	// onPanic, when set, observes panics that escape a task. The pool
	// always survives them: one poisoned request must never take down
	// the worker goroutine, let alone the daemon.
	onPanic func(*resilience.StageError)
}

// newWorkerPool starts `workers` goroutines behind a queue of `depth`
// waiting slots (in addition to the tasks being executed).
func newWorkerPool(workers, depth int) *workerPool {
	if workers < 1 {
		workers = 1
	}
	if depth < 0 {
		depth = 0
	}
	p := &workerPool{queue: make(chan func(), depth)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *workerPool) worker() {
	defer p.wg.Done()
	for task := range p.queue {
		// Last-resort panic isolation: tasks are expected to carry
		// their own Recover (for accurate stage labels), but anything
		// that still escapes is converted here so the worker goroutine
		// — and with it every queued request — survives.
		if err := resilience.Recover("pool", func() error {
			task()
			return nil
		}); err != nil {
			if se, ok := resilience.AsStageError(err); ok && p.onPanic != nil {
				p.onPanic(se)
			}
		}
	}
}

// submit enqueues task without blocking. It returns ErrQueueFull when
// all waiting slots are taken. Every accepted task runs, close drains
// them, so a submitter that waits has the task signal its own end
// (Server.start).
func (p *workerPool) submit(task func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errPoolClosed
	}
	select {
	case p.queue <- task:
		return nil
	default:
		return ErrQueueFull
	}
}

// queued reports how many tasks are waiting (not yet picked up).
func (p *workerPool) queued() int { return len(p.queue) }

// close stops accepting work and waits for in-flight tasks to drain.
func (p *workerPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	p.wg.Wait()
}
