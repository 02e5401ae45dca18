package constructs.enums;

/** An enum whose constants have arguments and class bodies (JLS 8.9). */
public enum Planet implements java.util.function.Supplier<String> {
    MERCURY(3.303e+23, 2.4397e6) {
        @Override
        String describe() { return "closest"; }
    },
    EARTH(5.976e+24, 6.37814e6) {
        @Override
        String describe() { return "home"; }
    },
    @Deprecated
    PLUTO(1.27e+22, 1.137e6) {
        @Override
        String describe() { return "demoted"; }
    };

    private final double mass, radius;

    Planet(double mass, double radius) {
        this.mass = mass;
        this.radius = radius;
    }

    abstract String describe();

    double surfaceGravity() {
        return 6.67300E-11 * mass / (radius * radius);
    }

    public String get() {
        return describe();
    }
}
