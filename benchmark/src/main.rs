fn main() -> std::process::ExitCode {
    dyncode_benchmark::cli::main()
}
