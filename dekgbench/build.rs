//! Records the build profile and compiler version for the result
//! fingerprint.

fn main() {
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_owned());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = std::process::Command::new(rustc)
        .arg("-V")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    println!("cargo:rustc-env=DEKGBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=DEKGBENCH_RUSTC={version}");
    println!("cargo:rerun-if-changed=build.rs");
}
