//go:build !go1.24

package sssearch

const tablesRecycled = false
