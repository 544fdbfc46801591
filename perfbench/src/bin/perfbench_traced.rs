//! The traced benchmark: per-layer metrics, with the counting allocator.

#[global_allocator]
static ALLOC: pdr_perfbench::trace::CountingAlloc = pdr_perfbench::trace::CountingAlloc;

fn main() -> std::process::ExitCode {
    pdr_perfbench::cli::main(true)
}
