package main

import "lib"

func main() {
	lib.Used()
	lib.Dispatch(lib.NewJob())
}
