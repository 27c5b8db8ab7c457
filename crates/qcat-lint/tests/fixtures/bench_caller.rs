//! Companion of `bench_laundered.rs`: a benchmark binary that reports
//! the heap footprint of what the library fn returned.

fn main() {
    let query = Query::default();
    let keys = probe_keys(&query);
    println!("{}", keys.heap_bytes());
}
