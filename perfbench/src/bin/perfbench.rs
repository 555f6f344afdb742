//! The timed benchmark binary (system allocator, no tracing).

fn main() {
    std::process::exit(perfbench::main(false));
}
