package main

import (
	"sync"
	"time"

	"pts"
)

// tracedStore times every Put the daemon makes into its pts.Store and
// counts the bytes written and the Gets and Deletes. Store calls happen
// per barrier, not per trial, so a mutex around the samples costs
// nothing measurable.
type tracedStore struct {
	inner pts.Store

	mu       sync.Mutex
	putS     []float64 // seconds per Put
	putBytes int64
	gets     int64
	deletes  int64
}

func (s *tracedStore) Put(key string, value []byte) error {
	t0 := time.Now()
	err := s.inner.Put(key, value)
	d := time.Since(t0).Seconds()
	s.mu.Lock()
	s.putS = append(s.putS, d)
	s.putBytes += int64(len(value))
	s.mu.Unlock()
	return err
}

func (s *tracedStore) Get(key string) ([]byte, bool, error) {
	v, ok, err := s.inner.Get(key)
	s.mu.Lock()
	s.gets++
	s.mu.Unlock()
	return v, ok, err
}

func (s *tracedStore) Delete(key string) error {
	err := s.inner.Delete(key)
	s.mu.Lock()
	s.deletes++
	s.mu.Unlock()
	return err
}

func (s *tracedStore) List(prefix string) ([]string, error) { return s.inner.List(prefix) }

// storeStats is a copy of the accounting, taken after the daemon has
// stopped writing.
type storeStats struct {
	putS     []float64
	putBytes int64
	gets     int64
	deletes  int64
}

func (s *tracedStore) stats() storeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeStats{
		putS:     append([]float64(nil), s.putS...),
		putBytes: s.putBytes,
		gets:     s.gets,
		deletes:  s.deletes,
	}
}
