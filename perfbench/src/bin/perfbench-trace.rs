//! The traced benchmark binary: per-layer metrics, with the counting
//! allocator installed.

#[global_allocator]
static GLOBAL: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main(true));
}
