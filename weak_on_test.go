//go:build go1.24

package sssearch

// tablesRecycled reports that the query engine hands its tables from one
// query to the next: it holds them through a weak pointer, which Go 1.24
// brought.
const tablesRecycled = true
