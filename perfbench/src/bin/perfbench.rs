//! The untraced benchmark: end-to-end metrics on the system allocator.

fn main() -> std::process::ExitCode {
    pdr_perfbench::cli::main(false)
}
