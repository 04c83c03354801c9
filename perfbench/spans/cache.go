package spans

import (
	"fmt"
	"time"

	"twl/internal/cache"
)

// CacheGets times cache.Get for each key of the store at dir and returns the
// per-call times in microseconds with the payloads read. A missing key is an
// error: the keys come from cells the service settled.
func CacheGets(dir string, keys []string) ([]float64, [][]byte, error) {
	c, err := cache.New(dir)
	if err != nil {
		return nil, nil, err
	}
	us := make([]float64, 0, len(keys))
	payloads := make([][]byte, 0, len(keys))
	for _, k := range keys {
		start := time.Now()
		p, ok, err := c.Get(k)
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return nil, nil, fmt.Errorf("cache: no entry for settled cell %s", k)
		}
		payloads = append(payloads, p)
	}
	return us, payloads, nil
}

// CachePuts times cache.Put of each payload under its key into a fresh store
// at dir and returns the per-call times in microseconds.
func CachePuts(dir string, keys []string, payloads [][]byte) ([]float64, error) {
	c, err := cache.New(dir)
	if err != nil {
		return nil, err
	}
	us := make([]float64, 0, len(keys))
	for i, k := range keys {
		start := time.Now()
		err := c.Put(k, payloads[i])
		us = append(us, float64(time.Since(start).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
	}
	return us, nil
}
